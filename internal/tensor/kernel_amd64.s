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

// ROW folds one k step of output row r into accumulators lo (columns 0-1) and
// hi (columns 2-3): X8/X9 hold the packed b row, aaddr is a[r*ars+kk*aks].
// MOVU is the unaligned two-lane move in the same encoding as ROW (VEX or
// legacy SSE), so the body never mixes the two.
#ifdef FUSED
#define ROW(aaddr, lo, hi) \
	VMOVDDUP aaddr, X10; \
	VFMADD231PD X8, X10, lo; \
	VFMADD231PD X9, X10, hi
#define MOVU VMOVUPD
#else
#define ROW(aaddr, lo, hi) \
	MOVSD aaddr, X10; \
	UNPCKLPD X10, X10; \
	MOVAPD X10, X11; \
	MULPD X8, X10; \
	MULPD X9, X11; \
	ADDPD X10, lo; \
	ADDPD X11, hi
#define MOVU MOVUPD
#endif

// func kern4x4(k int, a *float64, ars, aks int, b *float64, c *float64, ldc int)
//
// c[i*ldc+j] += a[i*ars+kk*aks] * b[kk*4+j] for i, j in [0, 4) and kk
// ascending over [0, k). The 16 outputs live in X0-X7 for the whole k loop.
TEXT ·kern4x4(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aks+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11
	LEAQ (R10)(R10*2), R12

	MOVU 0(DX), X0
	MOVU 16(DX), X1
	MOVU 0(DX)(R10*1), X2
	MOVU 16(DX)(R10*1), X3
	MOVU 0(DX)(R10*2), X4
	MOVU 16(DX)(R10*2), X5
	MOVU 0(DX)(R12*1), X6
	MOVU 16(DX)(R12*1), X7

	TESTQ CX, CX
	JLE   done

loop:
	MOVU 0(DI), X8
	MOVU 16(DI), X9
	ROW((SI), X0, X1)
	ROW((SI)(R8*1), X2, X3)
	ROW((SI)(R8*2), X4, X5)
	ROW((SI)(R11*1), X6, X7)
	ADDQ R9, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

done:
	MOVU X0, 0(DX)
	MOVU X1, 16(DX)
	MOVU X2, 0(DX)(R10*1)
	MOVU X3, 16(DX)(R10*1)
	MOVU X4, 0(DX)(R10*2)
	MOVU X5, 16(DX)(R10*2)
	MOVU X6, 0(DX)(R12*1)
	MOVU X7, 16(DX)(R12*1)
	RET
