//go:build amd64 && !purego

#include "textflag.h"

// AVX2 butterfly stage kernels. Complex multiplication uses the
// dup/swap/addsub sequence (VMULPD x2 + VADDSUBPD) — deliberately not
// FMA, whose fused rounding would diverge from the pure-Go reference.
// For b = hi*w per complex: t1 = [hr*wr, hi*wr], t2 = [hi*wi, hr*wi],
// VADDSUBPD gives [hr*wr - hi*wi, hi*wr + hr*wi] — the same individually
// rounded products, differences and (commuted) sums the reference
// computes, so outputs are value-identical.

// func cpuSupportsAVX2() bool
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	// XCR0 — XMM (bit 1) and YMM (bit 2) state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0:EBX — AVX2 (bit 5).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ    no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func stageAVX2(x *complex128, n, size int, wt *complex128)
//
// One radix-2 stage over every size-aligned block of x, 4 butterflies
// (2 ymm pairs) per inner iteration. half = size/2 is a multiple of 4
// (wrapper-enforced), so the inner loop has no tail.
TEXT ·stageAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ size+16(FP), DX
	MOVQ wt+24(FP), SI
	MOVQ DX, R8
	SHLQ $3, R8          // halfB = size/2 * 16
	SHLQ $4, DX          // sizeB = size * 16
	SHLQ $4, CX          // nB = n * 16
	XORQ R9, R9          // block offset in bytes

stblock:
	LEAQ (DI)(R9*1), R10 // lo base
	LEAQ (R10)(R8*1), R11 // hi base
	XORQ BX, BX          // butterfly offset in bytes

stk:
	VMOVUPD (R11)(BX*1), Y0    // hi, complexes 0-1
	VMOVUPD 32(R11)(BX*1), Y1  // hi, complexes 2-3
	VMOVUPD (SI)(BX*1), Y2     // wt 0-1
	VMOVUPD 32(SI)(BX*1), Y3   // wt 2-3
	VMOVDDUP Y2, Y4            // [wr, wr] dup
	VMOVDDUP Y3, Y5
	VPERMILPD $0xF, Y2, Y2     // [wi, wi] dup
	VPERMILPD $0xF, Y3, Y3
	VPERMILPD $0x5, Y0, Y6     // hi re/im swapped
	VPERMILPD $0x5, Y1, Y7
	VMULPD Y0, Y4, Y4          // t1 = hi * wr
	VMULPD Y1, Y5, Y5
	VMULPD Y6, Y2, Y6          // t2 = swap(hi) * wi
	VMULPD Y7, Y3, Y7
	VADDSUBPD Y6, Y4, Y4       // b = t1 -/+ t2
	VADDSUBPD Y7, Y5, Y5
	VMOVUPD (R10)(BX*1), Y8    // lo
	VMOVUPD 32(R10)(BX*1), Y9
	VADDPD Y4, Y8, Y10         // lo + b
	VADDPD Y5, Y9, Y11
	VSUBPD Y4, Y8, Y12         // lo - b
	VSUBPD Y5, Y9, Y13
	VMOVUPD Y10, (R10)(BX*1)
	VMOVUPD Y11, 32(R10)(BX*1)
	VMOVUPD Y12, (R11)(BX*1)
	VMOVUPD Y13, 32(R11)(BX*1)
	ADDQ $64, BX
	CMPQ BX, R8
	JB   stk
	ADDQ DX, R9
	CMPQ R9, CX
	JB   stblock
	VZEROUPPER
	RET

// func stageScaleAVX2(x *complex128, n, size int, wt *complex128, scale float64)
//
// stageAVX2 with a uniform scaling of both butterfly outputs — the
// final inverse stage folds its 1/N here.
TEXT ·stageScaleAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ size+16(FP), DX
	MOVQ wt+24(FP), SI
	VBROADCASTSD scale+32(FP), Y15
	MOVQ DX, R8
	SHLQ $3, R8
	SHLQ $4, DX
	SHLQ $4, CX
	XORQ R9, R9

ssblock:
	LEAQ (DI)(R9*1), R10
	LEAQ (R10)(R8*1), R11
	XORQ BX, BX

ssk:
	VMOVUPD (R11)(BX*1), Y0
	VMOVUPD 32(R11)(BX*1), Y1
	VMOVUPD (SI)(BX*1), Y2
	VMOVUPD 32(SI)(BX*1), Y3
	VMOVDDUP Y2, Y4
	VMOVDDUP Y3, Y5
	VPERMILPD $0xF, Y2, Y2
	VPERMILPD $0xF, Y3, Y3
	VPERMILPD $0x5, Y0, Y6
	VPERMILPD $0x5, Y1, Y7
	VMULPD Y0, Y4, Y4
	VMULPD Y1, Y5, Y5
	VMULPD Y6, Y2, Y6
	VMULPD Y7, Y3, Y7
	VADDSUBPD Y6, Y4, Y4
	VADDSUBPD Y7, Y5, Y5
	VMOVUPD (R10)(BX*1), Y8
	VMOVUPD 32(R10)(BX*1), Y9
	VADDPD Y4, Y8, Y10
	VADDPD Y5, Y9, Y11
	VSUBPD Y4, Y8, Y12
	VSUBPD Y5, Y9, Y13
	VMULPD Y15, Y10, Y10       // fold scale into the stores
	VMULPD Y15, Y11, Y11
	VMULPD Y15, Y12, Y12
	VMULPD Y15, Y13, Y13
	VMOVUPD Y10, (R10)(BX*1)
	VMOVUPD Y11, 32(R10)(BX*1)
	VMOVUPD Y12, (R11)(BX*1)
	VMOVUPD Y13, 32(R11)(BX*1)
	ADDQ $64, BX
	CMPQ BX, R8
	JB   ssk
	ADDQ DX, R9
	CMPQ R9, CX
	JB   ssblock
	VZEROUPPER
	RET

// func stage24AVX2(x *complex128, n int, w1r, w1i float64)
//
// Fused size-2 and size-4 stages, one 4-complex group per iteration.
// Only the group's fourth output needs a true complex multiply (by
// w1 = tw[n/4]); the rest are adds and subtracts.
TEXT ·stage24AVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHLQ $4, CX                // nB
	MOVSD w1r+16(FP), X10
	VMOVDDUP X10, X10          // [w1r, w1r]
	MOVSD w1i+24(FP), X11
	VMOVDDUP X11, X11          // [w1i, w1i]
	XORQ BX, BX

s24:
	MOVUPD (DI)(BX*1), X0      // a0
	MOVUPD 16(DI)(BX*1), X1    // a1
	MOVUPD 32(DI)(BX*1), X2    // a2
	MOVUPD 48(DI)(BX*1), X3    // a3
	VADDPD X1, X0, X4          // b0 = a0 + a1
	VSUBPD X1, X0, X5          // b1 = a0 - a1
	VADDPD X3, X2, X6          // b2 = a2 + a3
	VSUBPD X3, X2, X7          // b3 = a2 - a3
	VPERMILPD $0x1, X7, X8     // swap(b3)
	VMULPD X10, X7, X7         // b3 * w1r
	VMULPD X11, X8, X8         // swap(b3) * w1i
	VADDSUBPD X8, X7, X7       // t3 = b3 * w1
	VADDPD X6, X4, X9          // x[s]   = b0 + b2
	VSUBPD X6, X4, X6          // x[s+2] = b0 - b2
	VADDPD X7, X5, X8          // x[s+1] = b1 + t3
	VSUBPD X7, X5, X5          // x[s+3] = b1 - t3
	MOVUPD X9, (DI)(BX*1)
	MOVUPD X8, 16(DI)(BX*1)
	MOVUPD X6, 32(DI)(BX*1)
	MOVUPD X5, 48(DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, CX
	JB   s24
	RET
