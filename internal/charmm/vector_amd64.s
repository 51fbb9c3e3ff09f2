#include "textflag.h"

// The AVX2 kernels of vector_amd64.go. VEX encodings only, and VZEROUPPER
// before returning: one legacy-SSE instruction among the YMM operations
// costs a state transition each time it runs. No fused multiply-add: every
// product is rounded before it is added, as in the Go loops.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  nope
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// ECX: POPCNT (bit 23), OSXSAVE (27), AVX (28).
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
	JNE  nope
	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    nope
	MOVL   $7, AX
	MOVL   $0, CX
	CPUID
	// EBX: AVX2 (bit 5).
	BTL $5, BX
	JCC nope
	MOVB $1, ret+0(FP)

nope:
	RET

// packIDs[m] is the PSHUFB control that moves the 32-bit lanes set in the
// 4-bit mask m, in lane order, to the front of a 16-byte vector.
DATA packIDs<>+0(SB)/8, $0x8080808080808080
DATA packIDs<>+8(SB)/8, $0x8080808080808080
DATA packIDs<>+16(SB)/8, $0x8080808003020100
DATA packIDs<>+24(SB)/8, $0x8080808080808080
DATA packIDs<>+32(SB)/8, $0x8080808007060504
DATA packIDs<>+40(SB)/8, $0x8080808080808080
DATA packIDs<>+48(SB)/8, $0x0706050403020100
DATA packIDs<>+56(SB)/8, $0x8080808080808080
DATA packIDs<>+64(SB)/8, $0x808080800b0a0908
DATA packIDs<>+72(SB)/8, $0x8080808080808080
DATA packIDs<>+80(SB)/8, $0x0b0a090803020100
DATA packIDs<>+88(SB)/8, $0x8080808080808080
DATA packIDs<>+96(SB)/8, $0x0b0a090807060504
DATA packIDs<>+104(SB)/8, $0x8080808080808080
DATA packIDs<>+112(SB)/8, $0x0706050403020100
DATA packIDs<>+120(SB)/8, $0x808080800b0a0908
DATA packIDs<>+128(SB)/8, $0x808080800f0e0d0c
DATA packIDs<>+136(SB)/8, $0x8080808080808080
DATA packIDs<>+144(SB)/8, $0x0f0e0d0c03020100
DATA packIDs<>+152(SB)/8, $0x8080808080808080
DATA packIDs<>+160(SB)/8, $0x0f0e0d0c07060504
DATA packIDs<>+168(SB)/8, $0x8080808080808080
DATA packIDs<>+176(SB)/8, $0x0706050403020100
DATA packIDs<>+184(SB)/8, $0x808080800f0e0d0c
DATA packIDs<>+192(SB)/8, $0x0f0e0d0c0b0a0908
DATA packIDs<>+200(SB)/8, $0x8080808080808080
DATA packIDs<>+208(SB)/8, $0x0b0a090803020100
DATA packIDs<>+216(SB)/8, $0x808080800f0e0d0c
DATA packIDs<>+224(SB)/8, $0x0b0a090807060504
DATA packIDs<>+232(SB)/8, $0x808080800f0e0d0c
DATA packIDs<>+240(SB)/8, $0x0706050403020100
DATA packIDs<>+248(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL packIDs<>(SB), RODATA|NOPTR, $256

// func walkAVX2(out *int32, rs *cellRange, nr int, ids *int32, x, y, z *float64, self int32, px, py, pz, c2 float64) int
TEXT ·walkAVX2(SB), NOSPLIT, $0-104
	MOVQ         out+0(FP), DI
	MOVQ         rs+8(FP), R13
	MOVQ         nr+16(FP), BX
	MOVQ         ids+24(FP), SI
	MOVQ         x+32(FP), R10
	MOVQ         y+40(FP), R11
	MOVQ         z+48(FP), R12
	MOVL         self+56(FP), R8
	VMOVD        R8, X15
	VPBROADCASTD X15, X15
	VBROADCASTSD px+64(FP), Y12
	VBROADCASTSD py+72(FP), Y13
	VBROADCASTSD pz+80(FP), Y14
	VBROADCASTSD c2+88(FP), Y11
	LEAQ         packIDs<>(SB), DX
	XORQ         AX, AX
	TESTQ        BX, BX
	JZ           done

walkRange:
	// Candidate index R14 from lo, CX candidates left: hi - lo.
	MOVLQSX 0(R13), R14
	MOVLQSX 4(R13), CX
	SUBQ    R14, CX
	JLE     nextRange

scan4:
	// Lanes whose id > self (signed).
	VMOVDQU   (SI)(R14*4), X0
	VPCMPGTD  X15, X0, X1
	VMOVMSKPS X1, R8

	// Lanes within the cutoff: ((dx*dx + dy*dy) + dz*dz) < c2, dx = q - p.
	VMOVUPD   (R10)(R14*8), Y2
	VSUBPD    Y12, Y2, Y2
	VMOVUPD   (R11)(R14*8), Y3
	VSUBPD    Y13, Y3, Y3
	VMOVUPD   (R12)(R14*8), Y4
	VSUBPD    Y14, Y4, Y4
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VADDPD    Y3, Y2, Y2
	VMULPD    Y4, Y4, Y4
	VADDPD    Y4, Y2, Y2
	VCMPPD    $0x11, Y11, Y2, Y2 // LT_OQ: false for NaN, as Go's <
	VMOVMSKPD Y2, R9
	ANDL      R8, R9

	// The range's last 1-3 candidates: only the lanes below CX are its own.
	CMPQ CX, $4
	JGE  pack
	MOVL $1, R8
	SHLL CX, R8
	SUBL $1, R8
	ANDL R8, R9

pack:
	// Pack the ids of both tests, store 16 bytes at out[n], count them.
	MOVL    R9, R8
	SHLL    $4, R8
	VPSHUFB (DX)(R8*1), X0, X0
	VMOVDQU X0, (DI)(AX*4)
	POPCNTL R9, R9
	ADDQ    R9, AX

	ADDQ $4, R14
	SUBQ $4, CX
	JGT  scan4

nextRange:
	ADDQ $8, R13
	SUBQ $1, BX
	JNZ  walkRange

done:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// pairLane applies one partner of the four, in pairRowTail's order and
// operand order: the low two lanes of xy hold its scaled (dx, dy) and the
// low lane of z its scaled dz. They are added to the fi accumulators,
// (fx, fy) in X9 and fz in X11, and subtracted from frc at slot k (3j):
// one packed operation on two lanes gives each lane the bits of its own
// scalar one.
#define pairLane(k, xy, z) \
	VADDPD  xy, X9, X9; \
	VADDSD  z, X11, X11; \
	VMOVUPD (DI)(k*8), X6; \
	VSUBPD  xy, X6, X6; \
	VMOVUPD X6, (DI)(k*8); \
	VMOVSD  16(DI)(k*8), X6; \
	VSUBSD  z, X6, X6; \
	VMOVSD  X6, 16(DI)(k*8)

// func pairForceRowAVX2(p, f *[3]float64, js []int32, pos, frc *float64, strength, c2 float64, slots int) bool
TEXT ·pairForceRowAVX2(SB), NOSPLIT, $0-81
	MOVQ js_base+16(FP), SI
	MOVQ js_len+24(FP), CX

	// Every partner below slots, as unsigned (so no negative one), before
	// anything is read at a slot: the largest, four lanes at a time.
	MOVQ    SI, R13
	MOVQ    CX, R8
	VPXOR   X8, X8, X8

check4:
	VPMAXUD (R13), X8, X8
	ADDQ    $16, R13
	SUBQ    $4, R8
	JNZ     check4
	VPSHUFD $0x4e, X8, X7
	VPMAXUD X7, X8, X8
	VPSHUFD $0xb1, X8, X7
	VPMAXUD X7, X8, X8
	VMOVD   X8, R8
	CMPQ    R8, slots+72(FP)
	JCS     inRange
	VZEROUPPER
	MOVB    $0, ret+80(FP)
	RET

inRange:
	MOVQ         p+0(FP), AX
	MOVQ         f+8(FP), BX
	MOVQ         pos+40(FP), DX
	MOVQ         frc+48(FP), DI
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD c2+64(FP), Y15
	VMOVUPD      0(BX), X9
	VMOVSD       16(BX), X11

pair4:
	// The four partners' slots k = 3j, then their coordinates: the (x, y)
	// pairs of partners 0 and 2 in Y0 and of 1 and 3 in Y1, unpacked to
	// columns; z gathered lane by lane.
	MOVLQSX     0(SI), R9
	LEAQ        (R9)(R9*2), R9
	MOVLQSX     4(SI), R10
	LEAQ        (R10)(R10*2), R10
	MOVLQSX     8(SI), R11
	LEAQ        (R11)(R11*2), R11
	MOVLQSX     12(SI), R12
	LEAQ        (R12)(R12*2), R12
	VMOVUPD     (DX)(R9*8), X0
	VINSERTF128 $1, (DX)(R11*8), Y0, Y0
	VMOVUPD     (DX)(R10*8), X1
	VINSERTF128 $1, (DX)(R12*8), Y1, Y1
	VUNPCKLPD   Y1, Y0, Y3
	VUNPCKHPD   Y1, Y0, Y4
	VMOVSD      16(DX)(R9*8), X5
	VMOVHPD     16(DX)(R10*8), X5, X5
	VMOVSD      16(DX)(R11*8), X2
	VMOVHPD     16(DX)(R12*8), X2, X2
	VINSERTF128 $1, X2, Y5, Y5

	// d = p - q; r2 = (dx*dx + dy*dy) + dz*dz.
	VSUBPD Y3, Y12, Y3
	VSUBPD Y4, Y13, Y4
	VSUBPD Y5, Y14, Y5
	VMULPD Y3, Y3, Y6
	VMULPD Y4, Y4, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y5, Y7
	VADDPD Y7, Y6, Y6

	// R8 bit l: lane l is skipped (r2 >= c2 or r2 == 0; NaN is neither).
	VCMPPD    $0x1d, Y15, Y6, Y7 // GE_OQ
	VXORPD    Y0, Y0, Y0
	VCMPPD    $0x00, Y0, Y6, Y0  // EQ_OQ
	VORPD     Y0, Y7, Y7
	VMOVMSKPD Y7, R8

	// s = (1 - r2/c2) * strength; scaled d = d * s, back to (dx, dy)
	// pairs: partners 0 and 2 in Y0, 1 and 3 in Y1.
	VDIVPD       Y15, Y6, Y6
	VBROADCASTSD one<>(SB), Y7
	VSUBPD       Y6, Y7, Y6
	VBROADCASTSD strength+56(FP), Y7
	VMULPD       Y7, Y6, Y6
	VMULPD       Y6, Y3, Y3
	VMULPD       Y6, Y4, Y4
	VMULPD       Y6, Y5, Y5
	VUNPCKLPD    Y4, Y3, Y0
	VUNPCKHPD    Y4, Y3, Y1

	// The four partners in order.
	BTL $0, R8
	JCS lane1
	pairLane(R9, X0, X5)

lane1:
	VPERMILPD $1, X5, X7
	BTL       $1, R8
	JCS       lane2
	pairLane(R10, X1, X7)

lane2:
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y5, X5
	BTL          $2, R8
	JCS          lane3
	pairLane(R11, X0, X5)

lane3:
	VEXTRACTF128 $1, Y1, X1
	VPERMILPD    $1, X5, X7
	BTL          $3, R8
	JCS          next4
	pairLane(R12, X1, X7)

next4:
	ADDQ $16, SI
	SUBQ $4, CX
	JNZ  pair4

	VMOVUPD X9, 0(BX)
	VMOVSD  X11, 16(BX)
	VZEROUPPER
	MOVB    $1, ret+80(FP)
	RET

// kernelLane applies the partner whose index is at off(SI), or jumps to bad
// if its slot is not below slots (R14; unsigned, so a negative index is
// never below). In kernelRowTail's operand order: (y0, y1) and y2 are
// loaded from slot k = 3j of xb (DX); y − x is added to fb's slot k (DI) as
// (y − x) + fb[k], in two lanes (x0, x1 in X12) and a scalar (x2 in X13);
// and x − y to the fi accumulators as f + (x − y), in three lanes of Y9
// against (x0, x1, x2) in Y12, the fourth lane adding +0 to +0.
#define kernelLane(off, bad) \
	MOVLQSX     off(SI), R9; \
	CMPQ        R9, R14; \
	JCC         bad; \
	LEAQ        (R9)(R9*2), R9; \
	VMOVUPD     (DX)(R9*8), X0; \
	VMOVSD      16(DX)(R9*8), X1; \
	VSUBPD      X12, X0, X2; \
	VADDPD      (DI)(R9*8), X2, X2; \
	VMOVUPD     X2, (DI)(R9*8); \
	VSUBSD      X13, X1, X3; \
	VADDSD      16(DI)(R9*8), X3, X3; \
	VMOVSD      X3, 16(DI)(R9*8); \
	VINSERTF128 $1, X1, Y0, Y0; \
	VSUBPD      Y0, Y12, Y0; \
	VADDPD      Y0, Y9, Y9

// func kernelRowAVX2(x, f *[3]float64, js []int32, xb, fb *float64, slots int) int
TEXT ·kernelRowAVX2(SB), NOSPLIT, $0-72
	MOVQ        x+0(FP), AX
	MOVQ        f+8(FP), BX
	MOVQ        js_base+16(FP), SI
	MOVQ        js_len+24(FP), CX
	MOVQ        xb+40(FP), DX
	MOVQ        fb+48(FP), DI
	MOVQ        slots+56(FP), R14
	VMOVUPD     0(AX), X12
	VMOVSD      16(AX), X13
	VINSERTF128 $1, X13, Y12, Y12
	VMOVUPD     0(BX), X9
	VMOVSD      16(BX), X11
	VINSERTF128 $1, X11, Y9, Y9

row4:
	kernelLane(0, bad0)
	kernelLane(4, bad1)
	kernelLane(8, bad2)
	kernelLane(12, bad3)
	ADDQ $16, SI
	SUBQ $4, CX
	JNZ  row4

	VEXTRACTF128 $1, Y9, X11
	VMOVUPD      X9, 0(BX)
	VMOVSD       X11, 16(BX)

applied:
	VZEROUPPER
	SUBQ js_base+16(FP), SI
	SHRQ $2, SI
	MOVQ SI, ret+64(FP)
	RET

	// A bad partner in lane l: SI moves to it, and fi is not stored.
bad3:
	ADDQ $4, SI

bad2:
	ADDQ $4, SI

bad1:
	ADDQ $4, SI

bad0:
	JMP applied
