//go:build !race

package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestKern4x8MatchesPortable pins the assembly micro-kernel bit-identical to
// the portable one for k steps around the loop's edges and the tuned panel
// depth, with NN (row-major) and TN (column-wise) a strides, packed b
// slivers (bks=8) and in-place b rows (bks=11), and a non-zero seed in c so
// the accumulate-into-c half of the contract is checked too.
func TestKern4x8MatchesPortable(t *testing.T) {
	if !useAVX {
		t.Skip("host has no AVX; the portable kernel runs in its place")
	}
	rng := rand.New(rand.NewSource(13))
	const lda, ldc = 7, 10 // deliberately not 4 or 8: strides must be honored
	for _, k := range []int{0, 1, 2, 3, 5, 64, 192, 193} {
		for _, tn := range []bool{false, true} {
			for _, bks := range []int{8, 11} {
				ars, aks := lda, 1
				if tn {
					ars, aks = 1, lda
				}
				a := make([]float64, max(4*lda, (k+1)*lda))
				b := make([]float64, max(1, k)*bks) // &b[0] stays valid at k=0
				c := make([]float64, 3*ldc+8)
				for _, s := range [][]float64{a, b, c} {
					for i := range s {
						s[i] = rng.NormFloat64()
					}
				}
				want := Matrix{Rows: 1, Cols: len(c), Data: append([]float64(nil), c...)}
				kern4x8Go(k, a, ars, aks, b, bks, want.Data, ldc)
				kern4x8(k, &a[0], ars, aks, &b[0], bks, &c[0], ldc)
				got := Matrix{Rows: 1, Cols: len(c), Data: c}
				requireSameBits(t, fmt.Sprintf("k=%d tn=%v bks=%d", k, tn, bks), &got, &want)
			}
		}
	}
}

// TestGemmWithoutAVXMatchesReference runs the GEMM suite with the portable
// kernel standing in for the assembly, the path amd64 hosts without AVX take,
// at shrunk blocks so every tile still reaches the kernel.
func TestGemmWithoutAVXMatchesReference(t *testing.T) {
	prev := useAVX
	useAVX = false
	t.Cleanup(func() { useAVX = prev })
	shrinkBlocks(t, 4, 8, 3)
	requireGemmMatchesReference(t, rand.New(rand.NewSource(17)), "no-avx")
}
