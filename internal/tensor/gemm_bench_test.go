package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The BenchmarkGEMM family backs BENCH_kernels.json and the CI bench smoke:
// the tiled core on all three kinds at 512^3, worker-count scaling, the
// fixtures' per-replica layer shapes, and the fused Dense-forward epilogues.

const benchDim = 512

func benchMats(n int) (a, b, out *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return randMat(rng, n, n), randMat(rng, n, n), New(n, n)
}

// BenchmarkGEMM times the tiled pool-parallel core at 512^3 for every GEMM
// kind (NN forward, TN weight-gradient, NT input-gradient).
func BenchmarkGEMM(b *testing.B) {
	x, y, out := benchMats(benchDim)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"NN", func() { MatMulInto(out, x, y) }},
		{"TN", func() { MatMulATBAddInto(out, x, y) }},
		{"NT", func() { MatMulABTInto(out, x, y) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.run()
			}
		})
	}
}

// BenchmarkGEMMWorkers sweeps the shared-pool worker count at 512^3 NN — the
// scaling record for BENCH_kernels.json (worker counts above the host's
// cores serialize the helpers).
func BenchmarkGEMMWorkers(b *testing.B) {
	x, y, out := benchMats(benchDim)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			prev := SetWorkers(w)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkGEMMLayerShapes times every kind at the layer shapes of the
// repository benchmark's fixtures — train-wide's 32-row micro-batch through a
// 128-wide layer and its 16-row per-replica share, and an 8-row share through
// a 48-wide layer (session-tcp) — and reports GFLOP/s, the layer-by-layer
// view next to the 512^3 numbers above.
func BenchmarkGEMMLayerShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range []struct{ rows, width int }{{32, 128}, {16, 128}, {8, 48}} {
		x := randMat(rng, sh.rows, sh.width) // activations / output gradients
		w := randMat(rng, sh.width, sh.width)
		out := New(sh.rows, sh.width)
		gw := New(sh.width, sh.width)
		flops := 2 * float64(sh.rows) * float64(sh.width) * float64(sh.width)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"NN", func() { MatMulInto(out, x, w) }},      // forward: x @ W
			{"NT", func() { MatMulABTInto(out, x, w) }},   // input gradient: dY @ Wᵀ
			{"TN", func() { MatMulATBAddInto(gw, x, x) }}, // weight gradient: Xᵀ @ dY
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.rows, sh.width, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tc.run()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGEMMFusedForward compares the Dense(+ReLU) forward as three
// separate passes (matmul, bias add, rectify+mask) against the fused
// single-pass kernels at 256x256 @ 256x256.
func BenchmarkGEMMFusedForward(b *testing.B) {
	x, y, out := benchMats(256)
	rng := rand.New(rand.NewSource(3))
	bias := make([]float64, 256)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	mask := make([]uint64, (256*256+63)/64)
	relu := func(m *Matrix) {
		for i, v := range m.Data {
			if v > 0 {
				mask[i>>6] |= 1 << (uint(i) & 63)
			} else {
				m.Data[i] = 0
			}
		}
	}
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, y)
			AddRowVecInto(out, out, bias)
			relu(out)
		}
	})
	b.Run("fusedBias", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulAddRowVecInto(out, x, y, bias)
		}
	})
	b.Run("fusedBiasReLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulBiasReLUInto(out, x, y, bias, mask)
		}
	})
}
