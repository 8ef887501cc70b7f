#include "go_asm.h"
#include "textflag.h"

// Four lanes of field arithmetic mod p = 2^255-19 (fe4): an element is
// five 52-bit limbs, and limb i of the four lanes is one 256-bit vector.
// Products run on AVX-512 IFMA: VPMADD52LUQ and VPMADD52HUQ add the low
// and the high 52 bits of the 104-bit product of two limbs' low 52 bits
// to a 64-bit accumulator, so a product's low half lands in column i+j
// and its high half in column i+j+1 with no shifting. Every multiplier
// input must have its limbs below 2^52: FE4_CARRY leaves limbs 0-3 below
// 2^52 and limb 4 below 2^48, and every input of FE4_MUL and FE4_SQR has
// passed through it. Their own results are left unnormalized (limbs
// below 15·2^52) where only an addition or subtraction reads them.
//
// Registers: Y0-Y4 hold the first operand, Y5 a row of the second,
// Y16-Y25 the ten product columns (Y16-Y20 the result), Y6-Y11 are
// scratch, Y13 and K1 the swap mask and the rest constants
// (FE4_CONSTS). Y15 is left alone: Go code keeps X15 zero. Nothing
// branches on, or indexes memory by, a field value or a scalar bit.

DATA lanesConst<>+0(SB)/8, $0xfffffffffffff
DATA lanesConst<>+8(SB)/8, $0xfffffffffffff
DATA lanesConst<>+16(SB)/8, $0xfffffffffffff
DATA lanesConst<>+24(SB)/8, $0xfffffffffffff
DATA lanesConst<>+32(SB)/8, $608
DATA lanesConst<>+40(SB)/8, $608
DATA lanesConst<>+48(SB)/8, $608
DATA lanesConst<>+56(SB)/8, $608
DATA lanesConst<>+64(SB)/8, $19
DATA lanesConst<>+72(SB)/8, $19
DATA lanesConst<>+80(SB)/8, $19
DATA lanesConst<>+88(SB)/8, $19
DATA lanesConst<>+96(SB)/8, $0x7fffffffffff
DATA lanesConst<>+104(SB)/8, $0x7fffffffffff
DATA lanesConst<>+112(SB)/8, $0x7fffffffffff
DATA lanesConst<>+120(SB)/8, $0x7fffffffffff
DATA lanesConst<>+128(SB)/8, $0x1fffffffffffda00
DATA lanesConst<>+136(SB)/8, $0x1fffffffffffda00
DATA lanesConst<>+144(SB)/8, $0x1fffffffffffda00
DATA lanesConst<>+152(SB)/8, $0x1fffffffffffda00
DATA lanesConst<>+160(SB)/8, $0x1ffffffffffffe00
DATA lanesConst<>+168(SB)/8, $0x1ffffffffffffe00
DATA lanesConst<>+176(SB)/8, $0x1ffffffffffffe00
DATA lanesConst<>+184(SB)/8, $0x1ffffffffffffe00
DATA lanesConst<>+192(SB)/8, $0xfffffffffffe00
DATA lanesConst<>+200(SB)/8, $0xfffffffffffe00
DATA lanesConst<>+208(SB)/8, $0xfffffffffffe00
DATA lanesConst<>+216(SB)/8, $0xfffffffffffe00
DATA lanesConst<>+224(SB)/8, $121665
DATA lanesConst<>+232(SB)/8, $121665
DATA lanesConst<>+240(SB)/8, $121665
DATA lanesConst<>+248(SB)/8, $121665
GLOBL lanesConst<>(SB), RODATA|NOPTR, $256

// FE4_CONSTS loads the constants: Y26 2^52-1, Y27 608 (2^260 mod p),
// Y28 19 (2^255 mod p), Y29 2^47-1, Y30, Y31 and Y14 the limbs of
// 2^9·p (2^61-9728, 2^61-512 for limbs 1-3, 2^56-512), Y12 a24 = 121665.
#define FE4_CONSTS \
	VMOVDQU64 lanesConst<>+0(SB), Y26; \
	VMOVDQU64 lanesConst<>+32(SB), Y27; \
	VMOVDQU64 lanesConst<>+64(SB), Y28; \
	VMOVDQU64 lanesConst<>+96(SB), Y29; \
	VMOVDQU64 lanesConst<>+128(SB), Y30; \
	VMOVDQU64 lanesConst<>+160(SB), Y31; \
	VMOVDQU lanesConst<>+192(SB), Y14; \
	VMOVDQU lanesConst<>+224(SB), Y12

// FE4_LOAD loads the element at o(r) into Y0-Y4.
#define FE4_LOAD(r, o) \
	VMOVDQU o+0(r), Y0; \
	VMOVDQU o+32(r), Y1; \
	VMOVDQU o+64(r), Y2; \
	VMOVDQU o+96(r), Y3; \
	VMOVDQU o+128(r), Y4

// FE4_NORMALIZE normalizes the element at o(r) in place.
#define FE4_NORMALIZE(r, o) \
	VMOVDQU64 o+0(r), Y16; \
	VMOVDQU64 o+32(r), Y17; \
	VMOVDQU64 o+64(r), Y18; \
	VMOVDQU64 o+96(r), Y19; \
	VMOVDQU64 o+128(r), Y20; \
	FE4_CARRY; \
	FE4_STORE(r, o)

// FE4_MOVE copies the result Y16-Y20 to the first operand Y0-Y4.
#define FE4_MOVE \
	VMOVDQA64 Y16, Y0; \
	VMOVDQA64 Y17, Y1; \
	VMOVDQA64 Y18, Y2; \
	VMOVDQA64 Y19, Y3; \
	VMOVDQA64 Y20, Y4

// FE4_STORE writes the result Y16-Y20 to o(r).
#define FE4_STORE(r, o) \
	VMOVDQU64 Y16, o+0(r); \
	VMOVDQU64 Y17, o+32(r); \
	VMOVDQU64 Y18, o+64(r); \
	VMOVDQU64 Y19, o+96(r); \
	VMOVDQU64 Y20, o+128(r)

#define ACC_ZERO \
	VPXORQ Y16, Y16, Y16; \
	VPXORQ Y17, Y17, Y17; \
	VPXORQ Y18, Y18, Y18; \
	VPXORQ Y19, Y19, Y19; \
	VPXORQ Y20, Y20, Y20; \
	VPXORQ Y21, Y21, Y21; \
	VPXORQ Y22, Y22, Y22; \
	VPXORQ Y23, Y23, Y23; \
	VPXORQ Y24, Y24, Y24; \
	VPXORQ Y25, Y25, Y25

// FE4_CARRY normalizes Y16-Y20, limbs below 2^63: the bits of limb 4
// from 47 up are multiples of 2^255 and fold into limb 0 as 19, then
// limbs 0-3 carry their bits from 52 up into the next limb, in order.
// Limbs 0-3 end below 2^52 and limb 4 below 2^47 + 2^11.
#define FE4_CARRY \
	VPSRLQ $47, Y20, Y6; \
	VPANDQ Y29, Y20, Y20; \
	VPMADD52LUQ Y28, Y6, Y16; \
	VPSRLQ $52, Y16, Y6; \
	VPANDQ Y26, Y16, Y16; \
	VPADDQ Y6, Y17, Y17; \
	VPSRLQ $52, Y17, Y6; \
	VPANDQ Y26, Y17, Y17; \
	VPADDQ Y6, Y18, Y18; \
	VPSRLQ $52, Y18, Y6; \
	VPANDQ Y26, Y18, Y18; \
	VPADDQ Y6, Y19, Y19; \
	VPSRLQ $52, Y19, Y6; \
	VPANDQ Y26, Y19, Y19; \
	VPADDQ Y6, Y20, Y20

// FE4_FOLD folds the ten product columns Y16-Y25 (each below 9·2^52;
// column 9 below 2^44, as limb 4 of both factors is below 2^48) into
// five limbs, each below 15·2^52. Column 5+k
// is worth 608 times column k (2^260 ≡ 608): IFMA multiplies its low 52
// bits by 608 into columns k and k+1, and its bits from 52 up (below 9)
// go to column k+1 times 608 by one more multiply-add. The high half of
// column 9's product is worth 2^260 at limb 4, where it is added at bit
// 52 for FE4_CARRY's fold.
#define FE4_FOLD \
	VPSRLQ $52, Y21, Y6; \
	VPSRLQ $52, Y22, Y7; \
	VPSRLQ $52, Y23, Y8; \
	VPSRLQ $52, Y24, Y9; \
	VPXORQ Y10, Y10, Y10; \
	VPMADD52LUQ Y27, Y21, Y16; \
	VPMADD52HUQ Y27, Y21, Y17; \
	VPMADD52LUQ Y27, Y22, Y17; \
	VPMADD52HUQ Y27, Y22, Y18; \
	VPMADD52LUQ Y27, Y23, Y18; \
	VPMADD52HUQ Y27, Y23, Y19; \
	VPMADD52LUQ Y27, Y24, Y19; \
	VPMADD52HUQ Y27, Y24, Y20; \
	VPMADD52LUQ Y27, Y25, Y20; \
	VPMADD52HUQ Y27, Y25, Y10; \
	VPMADD52LUQ Y27, Y6, Y17; \
	VPMADD52LUQ Y27, Y7, Y18; \
	VPMADD52LUQ Y27, Y8, Y19; \
	VPMADD52LUQ Y27, Y9, Y20; \
	VPSLLQ $52, Y10, Y10; \
	VPADDQ Y10, Y20, Y20

// MUL_ROW adds row j of a product, Y5 = b_j times a = Y0-Y4: the low
// halves to columns j..j+4 (c0-c4) and the high halves to j+1..j+5
// (c1-c5).
#define MUL_ROW(c0, c1, c2, c3, c4, c5) \
	VPMADD52LUQ Y5, Y0, c0; \
	VPMADD52HUQ Y5, Y0, c1; \
	VPMADD52LUQ Y5, Y1, c1; \
	VPMADD52HUQ Y5, Y1, c2; \
	VPMADD52LUQ Y5, Y2, c2; \
	VPMADD52HUQ Y5, Y2, c3; \
	VPMADD52LUQ Y5, Y3, c3; \
	VPMADD52HUQ Y5, Y3, c4; \
	VPMADD52LUQ Y5, Y4, c4; \
	VPMADD52HUQ Y5, Y4, c5

// FE4_MUL sets Y16-Y20 to Y0-Y4 times the element at o(r), folded but
// not normalized: 25 product pairs, then FE4_FOLD.
#define FE4_MUL(r, o) \
	ACC_ZERO; \
	VMOVDQU o+0(r), Y5; \
	MUL_ROW(Y16, Y17, Y18, Y19, Y20, Y21); \
	VMOVDQU o+32(r), Y5; \
	MUL_ROW(Y17, Y18, Y19, Y20, Y21, Y22); \
	VMOVDQU o+64(r), Y5; \
	MUL_ROW(Y18, Y19, Y20, Y21, Y22, Y23); \
	VMOVDQU o+96(r), Y5; \
	MUL_ROW(Y19, Y20, Y21, Y22, Y23, Y24); \
	VMOVDQU o+128(r), Y5; \
	MUL_ROW(Y20, Y21, Y22, Y23, Y24, Y25); \
	FE4_FOLD

// FE4_SQR sets Y16-Y20 to the square of Y0-Y4, as FE4_MUL does: the ten
// cross products a_i·a_j (i < j), doubled, then the five squares a_i²,
// then FE4_FOLD. The columns have the same bounds as FE4_MUL's.
#define FE4_SQR \
	ACC_ZERO; \
	VPMADD52LUQ Y1, Y0, Y17; \
	VPMADD52HUQ Y1, Y0, Y18; \
	VPMADD52LUQ Y2, Y0, Y18; \
	VPMADD52HUQ Y2, Y0, Y19; \
	VPMADD52LUQ Y3, Y0, Y19; \
	VPMADD52HUQ Y3, Y0, Y20; \
	VPMADD52LUQ Y4, Y0, Y20; \
	VPMADD52HUQ Y4, Y0, Y21; \
	VPMADD52LUQ Y2, Y1, Y19; \
	VPMADD52HUQ Y2, Y1, Y20; \
	VPMADD52LUQ Y3, Y1, Y20; \
	VPMADD52HUQ Y3, Y1, Y21; \
	VPMADD52LUQ Y4, Y1, Y21; \
	VPMADD52HUQ Y4, Y1, Y22; \
	VPMADD52LUQ Y3, Y2, Y21; \
	VPMADD52HUQ Y3, Y2, Y22; \
	VPMADD52LUQ Y4, Y2, Y22; \
	VPMADD52HUQ Y4, Y2, Y23; \
	VPMADD52LUQ Y4, Y3, Y23; \
	VPMADD52HUQ Y4, Y3, Y24; \
	VPADDQ Y17, Y17, Y17; \
	VPADDQ Y18, Y18, Y18; \
	VPADDQ Y19, Y19, Y19; \
	VPADDQ Y20, Y20, Y20; \
	VPADDQ Y21, Y21, Y21; \
	VPADDQ Y22, Y22, Y22; \
	VPADDQ Y23, Y23, Y23; \
	VPADDQ Y24, Y24, Y24; \
	VPMADD52LUQ Y0, Y0, Y16; \
	VPMADD52HUQ Y0, Y0, Y17; \
	VPMADD52LUQ Y1, Y1, Y18; \
	VPMADD52HUQ Y1, Y1, Y19; \
	VPMADD52LUQ Y2, Y2, Y20; \
	VPMADD52HUQ Y2, Y2, Y21; \
	VPMADD52LUQ Y3, Y3, Y22; \
	VPMADD52HUQ Y3, Y3, Y23; \
	VPMADD52LUQ Y4, Y4, Y24; \
	VPMADD52HUQ Y4, Y4, Y25; \
	FE4_FOLD

// FE4_ADD sets Y16-Y20 to a+b, normalized.
#define FE4_ADD(ra, oa, rb, ob) \
	VMOVDQU64 oa+0(ra), Y16; \
	VMOVDQU64 oa+32(ra), Y17; \
	VMOVDQU64 oa+64(ra), Y18; \
	VMOVDQU64 oa+96(ra), Y19; \
	VMOVDQU64 oa+128(ra), Y20; \
	VPADDQ ob+0(rb), Y16, Y16; \
	VPADDQ ob+32(rb), Y17, Y17; \
	VPADDQ ob+64(rb), Y18, Y18; \
	VPADDQ ob+96(rb), Y19, Y19; \
	VPADDQ ob+128(rb), Y20, Y20; \
	FE4_CARRY

// FE4_SUB sets Y16-Y20 to a+2^9·p-b, normalized. Every b it is given
// is a product or a starting value, so its limbs are below those of
// 2^9·p and no limb goes negative.
#define FE4_SUB(ra, oa, rb, ob) \
	VPADDQ oa+0(ra), Y30, Y16; \
	VPADDQ oa+32(ra), Y31, Y17; \
	VPADDQ oa+64(ra), Y31, Y18; \
	VPADDQ oa+96(ra), Y31, Y19; \
	VPADDQ oa+128(ra), Y14, Y20; \
	VPSUBQ ob+0(rb), Y16, Y16; \
	VPSUBQ ob+32(rb), Y17, Y17; \
	VPSUBQ ob+64(rb), Y18, Y18; \
	VPSUBQ ob+96(rb), Y19, Y19; \
	VPSUBQ ob+128(rb), Y20, Y20; \
	FE4_CARRY

// FE4_MULA24_ADD sets Y16-Y20 to a24·(Y0-Y4) + the element at o(r),
// normalized; the high half of limb 4's product is worth 2^260 and
// folds into limb 0 as 608.
#define FE4_MULA24_ADD(r, o) \
	VMOVDQU64 o+0(r), Y16; \
	VMOVDQU64 o+32(r), Y17; \
	VMOVDQU64 o+64(r), Y18; \
	VMOVDQU64 o+96(r), Y19; \
	VMOVDQU64 o+128(r), Y20; \
	VPXORQ Y21, Y21, Y21; \
	VPMADD52LUQ Y12, Y0, Y16; \
	VPMADD52HUQ Y12, Y0, Y17; \
	VPMADD52LUQ Y12, Y1, Y17; \
	VPMADD52HUQ Y12, Y1, Y18; \
	VPMADD52LUQ Y12, Y2, Y18; \
	VPMADD52HUQ Y12, Y2, Y19; \
	VPMADD52LUQ Y12, Y3, Y19; \
	VPMADD52HUQ Y12, Y3, Y20; \
	VPMADD52LUQ Y12, Y4, Y20; \
	VPMADD52HUQ Y12, Y4, Y21; \
	VPMADD52LUQ Y27, Y21, Y16; \
	FE4_CARRY

// CSWAP_ROW exchanges the vectors at o and o+320 from DI in the lanes
// set in the opmask K1.
#define CSWAP_ROW(o) \
	VMOVDQU o(DI), Y8; \
	VMOVDQU o+320(DI), Y9; \
	VPBLENDMQ Y9, Y8, K1, Y10; \
	VPBLENDMQ Y8, Y9, K1, Y11; \
	VMOVDQU Y10, o(DI); \
	VMOVDQU Y11, o+320(DI)

// CSWAP exchanges (x2, z2) with (x3, z3), ten rows each, in the lanes
// where the mask Y13 is all ones.
#define CSWAP \
	VPTESTMQ Y13, Y13, K1; \
	CSWAP_ROW(laneState_x2+0); \
	CSWAP_ROW(laneState_x2+32); \
	CSWAP_ROW(laneState_x2+64); \
	CSWAP_ROW(laneState_x2+96); \
	CSWAP_ROW(laneState_x2+128); \
	CSWAP_ROW(laneState_z2+0); \
	CSWAP_ROW(laneState_z2+32); \
	CSWAP_ROW(laneState_z2+64); \
	CSWAP_ROW(laneState_z2+96); \
	CSWAP_ROW(laneState_z2+128)

// func ladder4(st *laneState)
//
// ladder4 runs the Montgomery ladder of RFC 7748 §5 in four lanes at
// once, the same step as ladder's (x25519_amd64.s) with x1 a per-lane
// vector: bits 254 down to 0 of each lane's clamped scalar st.k. The
// 64-bit word a bit lies in is indexed by the loop position, which is
// public; shifting the bit to the top of each lane and an arithmetic
// shift back make it a per-lane mask. DA, CB and the new x2, z2, x3 and
// z3 are left unnormalized (only additions and subtractions read them);
// x2 and z2 are normalized on the way out.
TEXT ·ladder4(SB), NOSPLIT, $0-8
	MOVQ st+0(FP), DI
	FE4_CONSTS

loop:
	MOVQ    laneState_pos(DI), CX
	MOVQ    CX, AX
	SHRQ    $6, AX
	SHLQ    $5, AX
	VMOVDQU laneState_k(DI)(AX*1), Y6
	NOTQ    CX
	ANDQ    $63, CX
	VMOVQ   CX, X7
	VPSLLQ  X7, Y6, Y6
	VPSRAQ  $63, Y6, Y6
	VMOVDQU laneState_swap(DI), Y7
	VMOVDQU Y6, laneState_swap(DI)
	VPXORQ  Y6, Y7, Y13
	CSWAP

	FE4_ADD(DI, laneState_x2, DI, laneState_z2)
	FE4_STORE(DI, laneState_a)
	FE4_SUB(DI, laneState_x2, DI, laneState_z2)
	FE4_STORE(DI, laneState_b)
	FE4_ADD(DI, laneState_x3, DI, laneState_z3)
	FE4_STORE(DI, laneState_c)
	FE4_SUB(DI, laneState_x3, DI, laneState_z3)
	FE4_STORE(DI, laneState_d)
	FE4_LOAD(DI, laneState_d)
	FE4_MUL(DI, laneState_a)
	FE4_STORE(DI, laneState_da)
	FE4_LOAD(DI, laneState_c)
	FE4_MUL(DI, laneState_b)
	FE4_STORE(DI, laneState_cb)
	FE4_LOAD(DI, laneState_a)
	FE4_SQR
	FE4_CARRY
	FE4_STORE(DI, laneState_aa)
	FE4_LOAD(DI, laneState_b)
	FE4_SQR
	FE4_CARRY
	FE4_STORE(DI, laneState_bb)
	FE4_ADD(DI, laneState_da, DI, laneState_cb)
	FE4_MOVE
	FE4_SQR
	FE4_STORE(DI, laneState_x3)
	FE4_SUB(DI, laneState_da, DI, laneState_cb)
	FE4_MOVE
	FE4_SQR
	FE4_CARRY
	FE4_MOVE
	FE4_MUL(DI, laneState_x1)
	FE4_STORE(DI, laneState_z3)
	FE4_LOAD(DI, laneState_aa)
	FE4_MUL(DI, laneState_bb)
	FE4_STORE(DI, laneState_x2)
	FE4_SUB(DI, laneState_aa, DI, laneState_bb)
	FE4_MOVE
	FE4_MULA24_ADD(DI, laneState_aa)
	FE4_STORE(DI, laneState_t)
	FE4_MUL(DI, laneState_t)
	FE4_STORE(DI, laneState_z2)

	DECQ laneState_pos(DI)
	JGE  loop

	VMOVDQU laneState_swap(DI), Y13
	CSWAP
	FE4_NORMALIZE(DI, laneState_x2)
	FE4_NORMALIZE(DI, laneState_z2)
	VZEROUPPER
	RET
