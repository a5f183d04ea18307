//go:build !purego

#include "textflag.h"

// The full-block (Σ, Σ|·|) leaves of leaf.go's reduction contract: lane j
// sums elements i ≡ j (mod 4) left to right from +0, the block's value is
// (l0+l2)+(l1+l3). X0 = (l0, l1) and X1 = (l2, l3) carry the sum, X2 and X3
// the sum of magnitudes; |t| is t with the sign bit masked off. Loads are
// unaligned: a []float64 is only 8-byte aligned.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $16

// func dotAbs128(u, v *[128]float64) (sum, abs float64)
TEXT ·dotAbs128(SB), NOSPLIT, $0-32
	MOVQ   u+0(FP), SI
	MOVQ   v+8(FP), DI
	MOVUPD absmask<>(SB), X7
	XORPS  X0, X0
	XORPS  X1, X1
	XORPS  X2, X2
	XORPS  X3, X3
	MOVQ   $32, CX

dotloop:
	MOVUPD (SI), X4
	MOVUPD 16(SI), X5
	MOVUPD (DI), X6
	MULPD  X6, X4
	MOVUPD 16(DI), X6
	MULPD  X6, X5
	ADDPD  X4, X0
	ADDPD  X5, X1
	ANDPD  X7, X4
	ANDPD  X7, X5
	ADDPD  X4, X2
	ADDPD  X5, X3
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   CX
	JNZ    dotloop

	ADDPD    X1, X0     // (l0+l2, l1+l3)
	ADDPD    X3, X2
	MOVAPD   X0, X1
	MOVAPD   X2, X3
	UNPCKHPD X1, X1     // high lane down
	UNPCKHPD X3, X3
	ADDSD    X1, X0     // (l0+l2) + (l1+l3)
	ADDSD    X3, X2
	MOVSD    X0, sum+16(FP)
	MOVSD    X2, abs+24(FP)
	RET

// func sumAbs128(u *[128]float64) (sum, abs float64)
TEXT ·sumAbs128(SB), NOSPLIT, $0-24
	MOVQ   u+0(FP), SI
	MOVUPD absmask<>(SB), X7
	XORPS  X0, X0
	XORPS  X1, X1
	XORPS  X2, X2
	XORPS  X3, X3
	MOVQ   $32, CX

sumloop:
	MOVUPD (SI), X4
	MOVUPD 16(SI), X5
	ADDPD  X4, X0
	ADDPD  X5, X1
	ANDPD  X7, X4
	ANDPD  X7, X5
	ADDPD  X4, X2
	ADDPD  X5, X3
	ADDQ   $32, SI
	DECQ   CX
	JNZ    sumloop

	ADDPD    X1, X0
	ADDPD    X3, X2
	MOVAPD   X0, X1
	MOVAPD   X2, X3
	UNPCKHPD X1, X1
	UNPCKHPD X3, X3
	ADDSD    X1, X0
	ADDSD    X3, X2
	MOVSD    X0, sum+8(FP)
	MOVSD    X2, abs+16(FP)
	RET

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// The full-block leaf of the norm: norm2Loop (vec.go) with the divide and
// the square of the common case — |x| no larger than the running scale —
// taken for two elements at once. X0 = scale, X8 = (scale, scale), X1 = ssq.
// DIVPD and MULPD round each lane as DIVSD and MULSD do, and the two squares
// are added to ssq low lane first, so ssq sees the loop's additions in the
// loop's order. A zero that reaches the packed step adds +0 to an ssq that
// is at least 1 (the loop skips it); a NaN fails the compare as it fails
// the loop's and takes the loop's else branch, which is the packed step.
// A pair goes through the loop's own two steps, one element at a time,
// while scale is still 0 (0/0 is not a skip) and whenever either element
// exceeds scale.
//
// func norm2128(u *[128]float64) (scale, ssq float64)
TEXT ·norm2128(SB), NOSPLIT, $0-24
	MOVQ   u+0(FP), SI
	MOVUPD absmask<>(SB), X7
	XORPS  X0, X0
	XORPS  X8, X8
	XORPS  X6, X6          // +0, to compare against
	MOVSD  one<>(SB), X1
	MOVQ   $64, CX
	JMP    steps           // scale is 0

pair:
	MOVUPD   (SI), X4
	ANDPD    X7, X4        // (|x0|, |x1|)
	MOVAPD   X8, X5
	CMPPD    X4, X5, $1    // scale < |x|, lane by lane; false for a NaN
	MOVMSKPD X5, AX
	TESTL    AX, AX
	JNZ      steps
	DIVPD    X8, X4        // r = |x| / scale
	MULPD    X4, X4        // r·r
	ADDSD    X4, X1        // ssq += r0·r0
	UNPCKHPD X4, X4
	ADDSD    X4, X1        // ssq += r1·r1
	ADDQ     $16, SI
	DECQ     CX
	JNZ      pair
	JMP      done

steps:
	MOVSD   (SI), X4
	ANDPD   X7, X4
	UCOMISD X6, X4
	JP      nonzero0       // a NaN is not zero
	JE      second
nonzero0:
	UCOMISD X0, X4
	JA      grow0          // scale < |x|
	DIVSD   X0, X4
	MULSD   X4, X4
	ADDSD   X4, X1
	JMP     second
grow0:
	MOVAPD  X0, X5
	DIVSD   X4, X5         // r = scale / |x|
	MULSD   X5, X1
	MULSD   X5, X1         // (ssq·r)·r
	ADDSD   one<>(SB), X1
	MOVAPD  X4, X0         // scale = |x|

second:
	MOVSD   8(SI), X4
	ANDPD   X7, X4
	UCOMISD X6, X4
	JP      nonzero1
	JE      stepped
nonzero1:
	UCOMISD X0, X4
	JA      grow1
	DIVSD   X0, X4
	MULSD   X4, X4
	ADDSD   X4, X1
	JMP     stepped
grow1:
	MOVAPD  X0, X5
	DIVSD   X4, X5
	MULSD   X5, X1
	MULSD   X5, X1
	ADDSD   one<>(SB), X1
	MOVAPD  X4, X0

stepped:
	MOVAPD   X0, X8
	UNPCKLPD X8, X8
	ADDQ     $16, SI
	DECQ     CX
	JZ       done
	UCOMISD  X6, X0
	JNE      pair          // scale is never a NaN
	JMP      steps

done:
	MOVSD X0, scale+8(FP)
	MOVSD X1, ssq+16(FP)
	RET

// The packed body of Axpy, Axpby and Xpby: four elements a trip, both
// products rounded and then their sum, which is how the Go loops in vec.go
// compile for GOAMD64=v1. Loads precede the store of the same elements, so
// dst may be x or y.
//
// func axpbyQuads(dst, x, y *float64, quads int, alpha, beta float64)
TEXT ·axpbyQuads(SB), NOSPLIT, $0-48
	MOVQ     dst+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     y+16(FP), DX
	MOVQ     quads+24(FP), CX
	MOVSD    alpha+32(FP), X0
	MOVSD    beta+40(FP), X1
	UNPCKLPD X0, X0
	UNPCKLPD X1, X1

quad:
	MOVUPD (SI), X2
	MOVUPD 16(SI), X3
	MOVUPD (DX), X4
	MOVUPD 16(DX), X5
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X1, X4
	MULPD  X1, X5
	ADDPD  X4, X2
	ADDPD  X5, X3
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	DECQ   CX
	JNZ    quad
	RET
