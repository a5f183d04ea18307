//go:build !purego

#include "textflag.h"

// The (Σ, Σ|·|) leaves of leaf.go's reduction contract over full blocks:
// lane j sums elements i ≡ j (mod 4) left to right from +0, the block's
// value is (l0+l2)+(l1+l3). One 256-bit register holds a block's four
// lanes; four blocks run side by side (Y0–Y3 their sums, Y4–Y7 their sums
// of magnitudes), so a trip's eight adds wait on nothing but each other's
// issue slots, and the blocks left over run one at a time on Y0 and Y4.
// The product is rounded (VMULPD) before it is added — no FMA — and |t| is
// t with the sign bit masked off. FOLD adds a register's high half to its
// low half, (l0+l2, l1+l3); VHADDPD then adds that pair's two lanes, for
// two blocks at once. Loads are unaligned: a []float64 is only 8-byte
// aligned.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

#define FOLD(Y, X) \
	VEXTRACTF128 $1, Y, X8 \
	VADDPD       X8, X, X

// DOT adds the four products at off(SI)·off(DI) to S and their magnitudes
// to A; SUM does the same for the four elements at off(SI).
#define DOT(off, S, A) \
	VMOVUPD off(SI)(AX*1), Y8     \
	VMULPD  off(DI)(AX*1), Y8, Y8 \
	VADDPD  Y8, S, S              \
	VANDPD  Y12, Y8, Y8           \
	VADDPD  Y8, A, A

#define SUM(off, S, A) \
	VMOVUPD off(SI)(AX*1), Y8 \
	VADDPD  Y8, S, S          \
	VANDPD  Y12, Y8, Y8       \
	VADDPD  Y8, A, A

// KERNEL is the body both entries share: TERMS is DOT or SUM. SI and DI
// walk the operands a block at a time (SUM never loads through DI, so
// advancing it there is idle), R8 and R9 the leaves, CX counts the blocks
// left, AX is the byte offset inside a block.
#define KERNEL(TERMS) \
	VBROADCASTSD absmask<>(SB), Y12 \
	CMPQ         CX, $4             \
	JLT          single             \
quad: \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7 \
	XORQ   AX, AX     \
quadloop: \
	TERMS(0, Y0, Y4)    \
	TERMS(1024, Y1, Y5) \
	TERMS(2048, Y2, Y6) \
	TERMS(3072, Y3, Y7) \
	ADDQ    $32, AX     \
	CMPQ    AX, $1024   \
	JNE     quadloop    \
	FOLD(Y0, X0)        \
	FOLD(Y1, X1)        \
	FOLD(Y2, X2)        \
	FOLD(Y3, X3)        \
	FOLD(Y4, X4)        \
	FOLD(Y5, X5)        \
	FOLD(Y6, X6)        \
	FOLD(Y7, X7)        \
	VHADDPD X1, X0, X0  \
	VHADDPD X3, X2, X2  \
	VHADDPD X5, X4, X4  \
	VHADDPD X7, X6, X6  \
	VMOVUPD X0, (R8)    \
	VMOVUPD X2, 16(R8)  \
	VMOVUPD X4, (R9)    \
	VMOVUPD X6, 16(R9)  \
	ADDQ    $4096, SI   \
	ADDQ    $4096, DI   \
	ADDQ    $32, R8     \
	ADDQ    $32, R9     \
	SUBQ    $4, CX      \
	CMPQ    CX, $4      \
	JGE     quad        \
single: \
	TESTQ  CX, CX     \
	JZ     done       \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y4, Y4, Y4 \
	XORQ   AX, AX     \
singleloop: \
	TERMS(0, Y0, Y4)   \
	ADDQ    $32, AX    \
	CMPQ    AX, $1024  \
	JNE     singleloop \
	FOLD(Y0, X0)       \
	FOLD(Y4, X4)       \
	VHADDPD X0, X0, X0 \
	VHADDPD X4, X4, X4 \
	VMOVSD  X0, (R8)   \
	VMOVSD  X4, (R9)   \
	ADDQ    $1024, SI  \
	ADDQ    $1024, DI  \
	ADDQ    $8, R8     \
	ADDQ    $8, R9     \
	DECQ    CX         \
	JMP     single     \
done: \
	VZEROUPPER \
	RET

// func dotAbsAVX(sum, abs, u, v *float64, blocks int)
TEXT ·dotAbsAVX(SB), NOSPLIT, $0-40
	MOVQ sum+0(FP), R8
	MOVQ abs+8(FP), R9
	MOVQ u+16(FP), SI
	MOVQ v+24(FP), DI
	MOVQ blocks+32(FP), CX
	KERNEL(DOT)

// func sumAbsAVX(sum, abs, u *float64, blocks int)
TEXT ·sumAbsAVX(SB), NOSPLIT, $0-32
	MOVQ sum+0(FP), R8
	MOVQ abs+8(FP), R9
	MOVQ u+16(FP), SI
	MOVQ blocks+24(FP), CX
	KERNEL(SUM)

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state:
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), then XCR0 bits 1 and 2.
//
// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
noavx:
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
