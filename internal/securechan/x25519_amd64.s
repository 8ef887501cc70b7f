#include "go_asm.h"
#include "textflag.h"

// Field arithmetic mod p = 2^255-19 on four little-endian 64-bit limbs
// (fe). A value is only loosely reduced: any 256-bit integer stands for
// its residue mod p, and each operation folds its overflow back with
// 2^256 ≡ 38 (mod p), so results stay below 2^256.
//
// The macros below take each operand as a base register and a byte
// offset and leave their result in R8-R11 for FE_STORE. They use AX,
// BX, CX, DX and R8-R15; the base registers must be others (SI, DI).
// Nothing here branches on, or indexes memory by, a field value or a
// scalar bit: carries are folded by unconditional adds or through masks
// built by SBBQ.

// FE_FOLD reduces R8-R11 + 2^256·R12, with R12 small and CX zero, to
// R8-R11 below 2^255 + 19·(2·R12+1): bit 255 and R12 are worth 19 and 38
// at the bottom, and adding them cannot carry out of the top limb once
// bit 255 is cleared. After FE_REDUCE R12 is at most 39 and after
// FE_MULC(9) at most 8, so those results are below 2^255 + 2^11.
#define FE_FOLD \
	SHLQ $1, R11, R12; \
	MOVQ $0x7fffffffffffffff, AX; \
	ANDQ AX, R11; \
	IMUL3Q $19, R12, R12; \
	ADDQ R12, R8; \
	ADCQ CX, R9; \
	ADCQ CX, R10; \
	ADCQ CX, R11

// FE_REDUCE folds the 512-bit product in R8-R15 into R8-R11: R8-R11 +
// 38·R12-R15 with two carry chains, then FE_FOLD of the fifth limb.
#define FE_REDUCE \
	MOVQ $38, DX; \
	XORQ CX, CX; \
	MULXQ R12, AX, BX; \
	ADCXQ AX, R8; \
	ADOXQ BX, R9; \
	MULXQ R13, AX, BX; \
	ADCXQ AX, R9; \
	ADOXQ BX, R10; \
	MULXQ R14, AX, BX; \
	ADCXQ AX, R10; \
	ADOXQ BX, R11; \
	MULXQ R15, AX, R12; \
	ADCXQ AX, R11; \
	ADOXQ CX, R12; \
	ADCXQ CX, R12; \
	FE_FOLD

// FE_ROW adds row i of the schoolbook product (DX = b[i] times a) into
// the accumulator limbs p0-p3 and sets p4, the row's top limb: the low
// halves run down the OF chain and the high halves down the CF chain.
#define FE_ROW(ra, oa, p0, p1, p2, p3, p4) \
	XORQ CX, CX; \
	MULXQ oa+0(ra), AX, BX; \
	ADOXQ AX, p0; \
	ADCXQ BX, p1; \
	MULXQ oa+8(ra), AX, BX; \
	ADOXQ AX, p1; \
	ADCXQ BX, p2; \
	MULXQ oa+16(ra), AX, BX; \
	ADOXQ AX, p2; \
	ADCXQ BX, p3; \
	MULXQ oa+24(ra), AX, p4; \
	ADOXQ AX, p3; \
	ADCXQ CX, p4; \
	ADOXQ CX, p4

// FE_MUL computes a·b.
#define FE_MUL(ra, oa, rb, ob) \
	MOVQ ob+0(rb), DX; \
	MULXQ oa+0(ra), R8, R9; \
	MULXQ oa+8(ra), AX, R10; \
	ADDQ AX, R9; \
	MULXQ oa+16(ra), AX, R11; \
	ADCQ AX, R10; \
	MULXQ oa+24(ra), AX, R12; \
	ADCQ AX, R11; \
	ADCQ $0, R12; \
	MOVQ ob+8(rb), DX; \
	FE_ROW(ra, oa, R9, R10, R11, R12, R13); \
	MOVQ ob+16(rb), DX; \
	FE_ROW(ra, oa, R10, R11, R12, R13, R14); \
	MOVQ ob+24(rb), DX; \
	FE_ROW(ra, oa, R11, R12, R13, R14, R15); \
	FE_REDUCE

// FE_SQR computes a²: the six cross products a_i·a_j (i < j), then one
// pass that doubles them down the CF chain while the OF chain adds the
// four diagonal squares a_i².
#define FE_SQR(ra, oa) \
	MOVQ oa+0(ra), DX; \
	MULXQ oa+8(ra), R9, R10; \
	MULXQ oa+16(ra), AX, R11; \
	ADDQ AX, R10; \
	MULXQ oa+24(ra), AX, R12; \
	ADCQ AX, R11; \
	ADCQ $0, R12; \
	MOVQ oa+8(ra), DX; \
	XORQ CX, CX; \
	MULXQ oa+16(ra), AX, BX; \
	ADCXQ AX, R11; \
	ADOXQ BX, R12; \
	MULXQ oa+24(ra), AX, R13; \
	ADCXQ AX, R12; \
	MOVQ oa+16(ra), DX; \
	MULXQ oa+24(ra), AX, R14; \
	ADCXQ AX, R13; \
	ADCXQ CX, R14; \
	ADOXQ CX, R13; \
	ADOXQ CX, R14; \
	XORQ R15, R15; \
	MOVQ oa+0(ra), DX; \
	MULXQ DX, R8, AX; \
	ADCXQ R9, R9; \
	ADOXQ AX, R9; \
	MOVQ oa+8(ra), DX; \
	MULXQ DX, AX, BX; \
	ADCXQ R10, R10; \
	ADOXQ AX, R10; \
	ADCXQ R11, R11; \
	ADOXQ BX, R11; \
	MOVQ oa+16(ra), DX; \
	MULXQ DX, AX, BX; \
	ADCXQ R12, R12; \
	ADOXQ AX, R12; \
	ADCXQ R13, R13; \
	ADOXQ BX, R13; \
	MOVQ oa+24(ra), DX; \
	MULXQ DX, AX, BX; \
	ADCXQ R14, R14; \
	ADOXQ AX, R14; \
	ADCXQ R15, R15; \
	ADOXQ BX, R15; \
	FE_REDUCE

// FE_MULC_ADD computes c·a + b for a constant c below 2^32: the
// product's fifth limb takes the sum's carry before both fold as 38.
#define FE_MULC_ADD(ra, oa, c, rb, ob) \
	MOVQ $c, DX; \
	MULXQ oa+0(ra), R8, R9; \
	MULXQ oa+8(ra), AX, R10; \
	ADDQ AX, R9; \
	MULXQ oa+16(ra), AX, R11; \
	ADCQ AX, R10; \
	MULXQ oa+24(ra), AX, R12; \
	ADCQ AX, R11; \
	ADCQ $0, R12; \
	ADDQ ob+0(rb), R8; \
	ADCQ ob+8(rb), R9; \
	ADCQ ob+16(rb), R10; \
	ADCQ ob+24(rb), R11; \
	ADCQ $0, R12; \
	XORQ CX, CX; \
	FE_FOLD

// FE_MULC computes c·a for a constant c below 2^32.
#define FE_MULC(ra, oa, c) \
	MOVQ $c, DX; \
	MULXQ oa+0(ra), R8, R9; \
	MULXQ oa+8(ra), AX, R10; \
	ADDQ AX, R9; \
	MULXQ oa+16(ra), AX, R11; \
	ADCQ AX, R10; \
	MULXQ oa+24(ra), AX, R12; \
	ADCQ AX, R11; \
	ADCQ $0, R12; \
	XORQ CX, CX; \
	FE_FOLD

// FE_ADD and FE_SUB take inputs below 2^255 + 2^11, as every FE_MUL,
// FE_SQR and FE_MULC result and the ladder's starting values are. A
// carry out of the top limb is then worth 38 and leaves a sum below
// 2^13 in the low limb alone, so the 38 is added there without a carry;
// a borrow costs 38 from a difference above 2^254, so it cannot borrow
// past the top limb again. Their results may reach 2^256 and go only to
// FE_MUL, FE_SQR and FE_MULC_ADD.

// FE_ADD computes a+b.
#define FE_ADD(ra, oa, rb, ob) \
	MOVQ oa+0(ra), R8; \
	MOVQ oa+8(ra), R9; \
	MOVQ oa+16(ra), R10; \
	MOVQ oa+24(ra), R11; \
	ADDQ ob+0(rb), R8; \
	ADCQ ob+8(rb), R9; \
	ADCQ ob+16(rb), R10; \
	ADCQ ob+24(rb), R11; \
	SBBQ AX, AX; \
	ANDQ $38, AX; \
	ADDQ AX, R8

// FE_SUB computes a-b.
#define FE_SUB(ra, oa, rb, ob) \
	MOVQ oa+0(ra), R8; \
	MOVQ oa+8(ra), R9; \
	MOVQ oa+16(ra), R10; \
	MOVQ oa+24(ra), R11; \
	SUBQ ob+0(rb), R8; \
	SBBQ ob+8(rb), R9; \
	SBBQ ob+16(rb), R10; \
	SBBQ ob+24(rb), R11; \
	SBBQ AX, AX; \
	ANDQ $38, AX; \
	SUBQ AX, R8; \
	SBBQ $0, R9; \
	SBBQ $0, R10; \
	SBBQ $0, R11

// FE_STORE writes R8-R11 to the fe at oc(rc).
#define FE_STORE(rc, oc) \
	MOVQ R8, oc+0(rc); \
	MOVQ R9, oc+8(rc); \
	MOVQ R10, oc+16(rc); \
	MOVQ R11, oc+24(rc)

// CSWAP_LIMB exchanges the limbs at offsets o and o+64 from DI where the
// mask in BX is all ones, and leaves them where it is zero. (Limb-sized
// loads: wider ones would span the limb-sized stores that wrote these
// values and stall instead of taking them from the store buffer.)
#define CSWAP_LIMB(o) \
	MOVQ o(DI), AX; \
	MOVQ o+64(DI), CX; \
	MOVQ AX, DX; \
	XORQ CX, DX; \
	ANDQ BX, DX; \
	XORQ DX, AX; \
	XORQ DX, CX; \
	MOVQ AX, o(DI); \
	MOVQ CX, o+64(DI)

// CSWAP exchanges (x2, z2) with (x3, z3), 64 bytes each, where BX is
// all ones.
#define CSWAP \
	CSWAP_LIMB(ladderState_x2+0); \
	CSWAP_LIMB(ladderState_x2+8); \
	CSWAP_LIMB(ladderState_x2+16); \
	CSWAP_LIMB(ladderState_x2+24); \
	CSWAP_LIMB(ladderState_z2+0); \
	CSWAP_LIMB(ladderState_z2+8); \
	CSWAP_LIMB(ladderState_z2+16); \
	CSWAP_LIMB(ladderState_z2+24)

// func ladder(st *ladderState)
//
// ladder runs the Montgomery ladder of RFC 7748 §5 over the clamped
// scalar st.k, bits 254 down to 0, from the state ladderStart sets up.
// On return (st.x2 : st.z2) is k·(st.x1) in projective form. One step
// is the RFC's: A = x2+z2, B = x2-z2, C = x3+z3, D = x3-z3, then
// x3 = (DA+CB)², z3 = x1·(DA-CB)², x2 = AA·BB and z2 = E·(AA+a24·E)
// with E = AA-BB and a24 = 121665. Where st.base is set, x1 is the base
// point 9 and its multiplication is by that constant. The swap mask
// comes from the scalar bit by arithmetic alone; the byte it is read
// from is indexed by the loop position, which is public.
TEXT ·ladder(SB), NOSPLIT, $0-8
	MOVQ st+0(FP), DI

loop:
	MOVQ ladderState_pos(DI), CX
	MOVQ CX, AX
	SHRQ $3, AX
	MOVBQZX ladderState_k(DI)(AX*1), BX
	ANDQ $7, CX
	SHRQ CX, BX
	ANDQ $1, BX
	MOVQ ladderState_swap(DI), AX
	MOVQ BX, ladderState_swap(DI)
	XORQ AX, BX
	NEGQ BX
	CSWAP

	FE_ADD(DI, ladderState_x2, DI, ladderState_z2)
	FE_STORE(DI, ladderState_a)
	FE_SUB(DI, ladderState_x2, DI, ladderState_z2)
	FE_STORE(DI, ladderState_b)
	FE_ADD(DI, ladderState_x3, DI, ladderState_z3)
	FE_STORE(DI, ladderState_c)
	FE_SUB(DI, ladderState_x3, DI, ladderState_z3)
	FE_STORE(DI, ladderState_d)
	FE_MUL(DI, ladderState_d, DI, ladderState_a)
	FE_STORE(DI, ladderState_da)
	FE_MUL(DI, ladderState_c, DI, ladderState_b)
	FE_STORE(DI, ladderState_cb)
	FE_SQR(DI, ladderState_a)
	FE_STORE(DI, ladderState_aa)
	FE_SQR(DI, ladderState_b)
	FE_STORE(DI, ladderState_bb)
	FE_SUB(DI, ladderState_da, DI, ladderState_cb)
	FE_STORE(DI, ladderState_z3)
	FE_ADD(DI, ladderState_da, DI, ladderState_cb)
	FE_STORE(DI, ladderState_x3)
	FE_SQR(DI, ladderState_z3)
	FE_STORE(DI, ladderState_z3)
	FE_SUB(DI, ladderState_aa, DI, ladderState_bb)
	FE_STORE(DI, ladderState_e)
	FE_MULC_ADD(DI, ladderState_e, 121665, DI, ladderState_aa)
	FE_STORE(DI, ladderState_a)
	FE_SQR(DI, ladderState_x3)
	FE_STORE(DI, ladderState_x3)
	CMPQ ladderState_base(DI), $0
	JNE  x1base
	FE_MUL(DI, ladderState_x1, DI, ladderState_z3)
	JMP  x1done

x1base:
	FE_MULC(DI, ladderState_z3, 9)

x1done:
	FE_STORE(DI, ladderState_z3)
	FE_MUL(DI, ladderState_aa, DI, ladderState_bb)
	FE_STORE(DI, ladderState_x2)
	FE_MUL(DI, ladderState_e, DI, ladderState_a)
	FE_STORE(DI, ladderState_z2)

	DECQ ladderState_pos(DI)
	JGE  loop

	MOVQ ladderState_swap(DI), BX
	NEGQ BX
	CSWAP
	RET

// func feMul(z, x, y *fe)
TEXT ·feMul(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FE_MUL(SI, 0, DI, 0)
	MOVQ z+0(FP), DI
	FE_STORE(DI, 0)
	RET

// func feSqrN(z, x *fe, n int)
//
// feSqrN sets z = x^(2^n); n must be at least 1.
TEXT ·feSqrN(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	FE_SQR(SI, 0)
	FE_STORE(DI, 0)
	MOVQ n+16(FP), SI
	DECQ SI
	JZ   done

sqr:
	FE_SQR(DI, 0)
	FE_STORE(DI, 0)
	DECQ SI
	JNZ  sqr

done:
	RET

// func cpuid(leaf uint32) (ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx+8(FP)
	MOVL CX, ecx+12(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
