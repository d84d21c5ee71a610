//go:build !race

#include "textflag.h"

// The hardware-FMA body is chosen exactly where fma_on.go makes fmadd a fused
// multiply-add, so the kernel and the scalar chains round identically.
#ifdef GOAMD64_v3
#define FUSED
#endif
#ifdef GOAMD64_v4
#define FUSED
#endif

// ROW folds one k step of output row r into accumulators lo (columns 0-3) and
// hi (columns 4-7): Y8/Y9 hold the b row, aaddr is a[r*ars+kk*aks]. The
// unfused body multiplies and adds in two roundings, like fmadd on v1/v2.
#ifdef FUSED
#define ROW(aaddr, lo, hi) \
	VBROADCASTSD aaddr, Y10; \
	VFMADD231PD  Y8, Y10, lo; \
	VFMADD231PD  Y9, Y10, hi
#else
#define ROW(aaddr, lo, hi) \
	VBROADCASTSD aaddr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo; \
	VADDPD       Y12, hi, hi
#endif

// func kern4x8(k int, a *float64, ars, aks int, b *float64, bks int, c *float64, ldc int)
//
// c[i*ldc+j] += a[i*ars+kk*aks] * b[kk*bks+j] for i in [0, 4), j in [0, 8)
// and kk ascending over [0, k). The 32 outputs live in Y0-Y7 for the whole k
// loop. Requires AVX (see hasAVX).
TEXT ·kern4x8(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aks+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ bks+40(FP), R13
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R13
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11
	LEAQ (R10)(R10*2), R12

	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 0(DX)(R10*1), Y2
	VMOVUPD 32(DX)(R10*1), Y3
	VMOVUPD 0(DX)(R10*2), Y4
	VMOVUPD 32(DX)(R10*2), Y5
	VMOVUPD 0(DX)(R12*1), Y6
	VMOVUPD 32(DX)(R12*1), Y7

	TESTQ CX, CX
	JLE   done

loop:
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	ROW((SI), Y0, Y1)
	ROW((SI)(R8*1), Y2, Y3)
	ROW((SI)(R8*2), Y4, Y5)
	ROW((SI)(R11*1), Y6, Y7)
	ADDQ R9, SI
	ADDQ R13, DI
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 0(DX)(R10*1)
	VMOVUPD Y3, 32(DX)(R10*1)
	VMOVUPD Y4, 0(DX)(R10*2)
	VMOVUPD Y5, 32(DX)(R10*2)
	VMOVUPD Y6, 0(DX)(R12*1)
	VMOVUPD Y7, 32(DX)(R12*1)
	VZEROUPPER
	RET

// func hasAVX() bool
//
// Reports whether the CPU implements AVX (CPUID.1:ECX bits 27 OSXSAVE and 28
// AVX) and the OS saves XMM and YMM state across context switches (XCR0 bits
// 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
