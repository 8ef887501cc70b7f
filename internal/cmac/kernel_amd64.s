#include "go_asm.h"
#include "textflag.h"

// The lane kernels compute the CMACs of the first 1, 2, 4 or 8 lanes:
// lane i runs the message at msg[i] under the key *lk[i] — its head
// leading bytes block by block, then the final block M_last that shape
// describes (tailShape) — and writes the CMAC to mac[i]. Key pointer i
// is held in KEYi, the chain in Xi, across all blocks. The lanes'
// AESENCs do not depend on each other, so the wider kernels keep the
// AES unit busy where one lane would wait out each round's latency;
// the narrower ones spare a burst's last, partly filled group the cost
// of idle lanes.
//
// Keys and message bytes are loaded with MOVOU because a legacy-encoded
// AESENC, PXOR or PSHUFB with a memory operand faults on an unaligned
// address, and Go aligns the keys inside CMAC values to 8 bytes only.

#define KEY0 R8
#define KEY1 R9
#define KEY2 R10
#define KEY3 R11
#define KEY4 R12
#define KEY5 R13
#define KEY6 SI
#define KEY7 DI

#define KEYS1 MOVQ 0(AX), KEY0; PXOR X0, X0
#define KEYS2 KEYS1; MOVQ 8(AX), KEY1; PXOR X1, X1
#define KEYS4 KEYS2; MOVQ 16(AX), KEY2; PXOR X2, X2; MOVQ 24(AX), KEY3; PXOR X3, X3
#define KEYS8 KEYS4; MOVQ 32(AX), KEY4; PXOR X4, X4; MOVQ 40(AX), KEY5; PXOR X5, X5; MOVQ 48(AX), KEY6; PXOR X6, X6; MOVQ 56(AX), KEY7; PXOR X7, X7

// Xi ^= the block at offset AX of lane i's message.
#define MSG(i, xi) MOVQ (8*i)(CX), DX; MOVOU (DX)(AX*1), X8; PXOR X8, xi
#define MSG1 MSG(0, X0)
#define MSG2 MSG1; MSG(1, X1)
#define MSG4 MSG2; MSG(2, X2); MSG(3, X3)
#define MSG8 MSG4; MSG(4, X4); MSG(5, X5); MSG(6, X6); MSG(7, X7)

// Xi ^= lane i's M_last: its message's last 16 bytes (at offset AX)
// shuffled by X12, xored with the pad X13 and the subkey at offset BX.
#define TAIL(i, key, xi) \
	MOVQ (8*i)(CX), DX; \
	MOVOU (DX)(AX*1), X8; \
	PSHUFB X12, X8; \
	PXOR X13, X8; \
	MOVOU (key)(BX*1), X9; \
	PXOR X9, X8; \
	PXOR X8, xi
#define TAIL1 TAIL(0, KEY0, X0)
#define TAIL2 TAIL1; TAIL(1, KEY1, X1)
#define TAIL4 TAIL2; TAIL(2, KEY2, X2); TAIL(3, KEY3, X3)
#define TAIL8 TAIL4; TAIL(4, KEY4, X4); TAIL(5, KEY5, X5); TAIL(6, KEY6, X6); TAIL(7, KEY7, X7)

#define STORE1 MOVOU X0, 0(BX)
#define STORE2 STORE1; MOVOU X1, 16(BX)
#define STORE4 STORE2; MOVOU X2, 32(BX); MOVOU X3, 48(BX)
#define STORE8 STORE4; MOVOU X4, 64(BX); MOVOU X5, 80(BX); MOVOU X6, 96(BX); MOVOU X7, 112(BX)

// One AES step (op is PXOR for the whitening, AESENC, or AESENCLAST)
// with the round key at off, in each lane.
#define STEP1(op, off) MOVOU (laneKey_rk+off)(KEY0), X8; op X8, X0
#define STEP2(op, off) STEP1(op, off); MOVOU (laneKey_rk+off)(KEY1), X9; op X9, X1
#define STEP4(op, off) STEP2(op, off); MOVOU (laneKey_rk+off)(KEY2), X10; op X10, X2; MOVOU (laneKey_rk+off)(KEY3), X11; op X11, X3
#define STEP8(op, off) STEP4(op, off); MOVOU (laneKey_rk+off)(KEY4), X8; op X8, X4; MOVOU (laneKey_rk+off)(KEY5), X9; op X9, X5; MOVOU (laneKey_rk+off)(KEY6), X10; op X10, X6; MOVOU (laneKey_rk+off)(KEY7), X11; op X11, X7

#define AES128(STEP) \
	STEP(PXOR, 0); \
	STEP(AESENC, 16); \
	STEP(AESENC, 32); \
	STEP(AESENC, 48); \
	STEP(AESENC, 64); \
	STEP(AESENC, 80); \
	STEP(AESENC, 96); \
	STEP(AESENC, 112); \
	STEP(AESENC, 128); \
	STEP(AESENC, 144); \
	STEP(AESENCLAST, 160)

// LANES is the body of a lane kernel. AX walks the leading blocks'
// offset once the key pointers are loaded, then holds the offset of
// the messages' last 16 bytes.
#define LANES(KEYS, MSGS, TAILS, STEP, STORE) \
	MOVQ lk+0(FP), AX; \
	MOVQ msg+8(FP), CX; \
	KEYS; \
	XORQ AX, AX; \
	CMPQ AX, head+16(FP); \
	JGE final; \
loop:; \
	MSGS; \
	AES128(STEP); \
	ADDQ $16, AX; \
	CMPQ AX, head+16(FP); \
	JLT loop; \
final:; \
	MOVQ shape+24(FP), DX; \
	MOVOU tailShape_shuf(DX), X12; \
	MOVOU tailShape_pad(DX), X13; \
	SUBQ tailShape_back(DX), AX; \
	MOVQ tailShape_sub(DX), BX; \
	TAILS; \
	AES128(STEP); \
	MOVQ mac+32(FP), BX; \
	STORE; \
	RET

// func cmac8(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)
TEXT ·cmac8(SB), NOSPLIT, $0-40
	LANES(KEYS8, MSG8, TAIL8, STEP8, STORE8)

// func cmac4(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)
TEXT ·cmac4(SB), NOSPLIT, $0-40
	LANES(KEYS4, MSG4, TAIL4, STEP4, STORE4)

// func cmac2(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)
TEXT ·cmac2(SB), NOSPLIT, $0-40
	LANES(KEYS2, MSG2, TAIL2, STEP2, STORE2)

// func cmac1(lk *[BurstLanes]*laneKey, msg *[BurstLanes]*byte, head int, shape *tailShape, mac *[BurstLanes][BlockSize]byte)
TEXT ·cmac1(SB), NOSPLIT, $0-40
	LANES(KEYS1, MSG1, TAIL1, STEP1, STORE1)

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET
