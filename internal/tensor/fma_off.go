//go:build !amd64.v3 && !amd64.v4 && !arm64

package tensor

// fmadd returns acc + a*b with separate multiply and add roundings.
//
// This is the rounding on baseline amd64 (GOAMD64=v1/v2), where the FMA
// instruction is not guaranteed: the 4x8 YMM assembly micro-kernel
// (kernel_amd64.s) uses VMULPD+VADDPD here, and the edge loop and the
// portable kern4x8Go round the same way through this helper, so every path
// yields the same bits. The fused form is reserved for builds that guarantee
// the instruction (see fma_on.go). The two build flavors differ in rounding, so they are not
// bit-comparable with each other.
func fmadd(a, b, acc float64) float64 { return acc + a*b }
