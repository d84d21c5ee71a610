//go:build !race

package tensor

// kern4x4 is the assembly micro-kernel (kernel_amd64.s) with kern4x4Go's
// contract. Callers pass pointers into slices cut to exactly the extent the
// kernel touches (see microKernel), so an index bug panics in Go first.
//
//go:noescape
func kern4x4(k int, a *float64, ars, aks int, b *float64, c *float64, ldc int)

// microKernel runs the assembly kernel on operands already cut to its extent.
func microKernel(k int, a []float64, ars, aks int, b, c []float64, ldc int) {
	kern4x4(k, &a[0], ars, aks, &b[0], &c[0], ldc)
}
