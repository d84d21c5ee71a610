//go:build !race

package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestKern4x4MatchesPortable pins the assembly micro-kernel bit-identical to
// the portable one for k steps around the loop's edges and the tuned panel
// depth, with NN (row-major) and TN (column-wise) a strides, and a non-zero
// seed in c so the accumulate-into-c half of the contract is checked too.
func TestKern4x4MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const lda, ldc = 7, 6 // deliberately not 4: strides must be honored
	for _, k := range []int{0, 1, 2, 3, 5, 64, 192, 193} {
		for _, tn := range []bool{false, true} {
			ars, aks := lda, 1
			if tn {
				ars, aks = 1, lda
			}
			a := make([]float64, max(4*lda, (k+1)*lda))
			b := make([]float64, 4*k+1) // +1: &b[0] stays valid at k=0
			c := make([]float64, 3*ldc+4)
			for _, s := range [][]float64{a, b, c} {
				for i := range s {
					s[i] = rng.NormFloat64()
				}
			}
			want := Matrix{Rows: 1, Cols: len(c), Data: append([]float64(nil), c...)}
			kern4x4Go(k, a, ars, aks, b, want.Data, ldc)
			kern4x4(k, &a[0], ars, aks, &b[0], &c[0], ldc)
			got := Matrix{Rows: 1, Cols: len(c), Data: c}
			requireSameBits(t, fmt.Sprintf("k=%d tn=%v", k, tn), &got, &want)
		}
	}
}
