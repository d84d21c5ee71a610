//go:build !amd64 || race

package tensor

// microKernel runs the portable kernel: off amd64 there is no assembly, and
// under the race detector the assembly's loads and stores would be invisible.
func microKernel(k int, a []float64, ars, aks int, b []float64, bks int, c []float64, ldc int) {
	kern4x8Go(k, a, ars, aks, b, bks, c, ldc)
}
