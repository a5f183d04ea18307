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
