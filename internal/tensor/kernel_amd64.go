//go:build !race

package tensor

// kern4x8 is the AVX assembly micro-kernel (kernel_amd64.s) with kern4x8Go's
// contract. Callers pass pointers into slices cut to exactly the extent the
// kernel touches (see microKernel), so an index bug panics in Go first.
//
//go:noescape
func kern4x8(k int, a *float64, ars, aks int, b *float64, bks int, c *float64, ldc int)

// hasAVX reports whether the CPU and OS support 256-bit AVX (kernel_amd64.s).
func hasAVX() bool

// useAVX selects the assembly kernel; amd64 hosts without AVX run the
// portable one, which yields the same bits.
var useAVX = hasAVX()

// microKernel runs the 4x8 kernel on operands already cut to its extent.
func microKernel(k int, a []float64, ars, aks int, b []float64, bks int, c []float64, ldc int) {
	if useAVX {
		kern4x8(k, &a[0], ars, aks, &b[0], bks, &c[0], ldc)
		return
	}
	kern4x8Go(k, a, ars, aks, b, bks, c, ldc)
}
