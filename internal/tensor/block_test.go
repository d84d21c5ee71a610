package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// shrinkBlocks shrinks the cache blocks so tiny, hand-checkable shapes span
// several tiles and k panels (including block-boundary remainders) and fan
// out over the pool, restoring the tuned sizes when the test ends.
func shrinkBlocks(t *testing.T, mc, nc, kc int) {
	t.Helper()
	pm, pn, pk := blockMC, blockNC, blockKC
	blockMC, blockNC, blockKC = mc, nc, kc
	t.Cleanup(func() { blockMC, blockNC, blockKC = pm, pn, pk })
}

// requireSameBits fails when any element of got differs from want in its
// float64 bit pattern — the determinism contract is exact, not approximate.
func requireSameBits(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				ctx, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// gemmCase holds one adversarial logical shape.
type gemmCase struct{ m, n, k int }

// adversarialShapes are chosen against the 4x8x3 and 4x12x3 test blocks and
// the 4x8 micro-kernel: degenerate dims, exact block multiples, every row
// remainder class, column remainders on both sides of 8, products wide
// enough that a second 12-column tile runs the kernel from a column offset
// that is not a multiple of 8, and zero dims (including the K=0 case where
// overwrite must still zero the output).
var adversarialShapes = []gemmCase{
	{1, 1, 1}, {1, 9, 1}, {1, 1, 7}, {1, 17, 5},
	{2, 4, 4}, {4, 4, 3}, {5, 5, 5}, {8, 8, 6},
	{9, 13, 7}, {3, 17, 2}, {33, 2, 11}, {2, 33, 11},
	{12, 12, 12}, {16, 8, 9}, {6, 26, 7}, {8, 20, 4},
	{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {1, 1, 0},
}

// operands builds (a, b) with the physical layouts kind expects for the
// logical product dimensions (m, n, k).
func operands(rng *rand.Rand, kind gemmKind, c gemmCase) (a, b *Matrix) {
	switch kind {
	case gemmNN:
		return randMat(rng, c.m, c.k), randMat(rng, c.k, c.n)
	case gemmTN:
		return randMat(rng, c.k, c.m), randMat(rng, c.k, c.n)
	default: // gemmNT
		return randMat(rng, c.m, c.k), randMat(rng, c.n, c.k)
	}
}

// requireGemmMatchesReference runs every GEMM kind over the adversarial
// shapes in overwrite and accumulate modes at worker counts 1/2/8 and
// requires each result bit-identical to the scalar reference.
func requireGemmMatchesReference(t *testing.T, rng *rand.Rand, label string) {
	t.Helper()
	kinds := []gemmKind{gemmNN, gemmTN, gemmNT}
	names := []string{"NN", "TN", "NT"}
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		for ki, kind := range kinds {
			for _, c := range adversarialShapes {
				for _, acc := range []bool{false, true} {
					a, b := operands(rng, kind, c)
					got := randMat(rng, c.m, c.n) // garbage: overwrite must not leak it
					want := got.Clone()
					refGemm(kind, want, a, b, acc)
					gemm(kind, got, a, b, acc, nil, nil)
					ctx := fmt.Sprintf("%s %s %dx%dx%d workers=%d", label, names[ki], c.m, c.n, c.k, w)
					if acc {
						ctx += "+acc"
					}
					requireSameBits(t, ctx, got, want)
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestBlockedGemmBitIdenticalToReference pins every GEMM kind bit-identical
// to the scalar reference at shrunk blocks, so the adversarial shapes span
// many tiles, k panels and ragged edges and fan out over the pool. 4x8x3
// tiles hold exactly one micro-kernel block; 4x12x3 tiles end in a 4-column
// edge, so kernel blocks start at column offsets that are not multiples of 8.
func TestBlockedGemmBitIdenticalToReference(t *testing.T) {
	for _, nc := range []int{8, 12} {
		t.Run(fmt.Sprintf("4x%dx3", nc), func(t *testing.T) {
			shrinkBlocks(t, 4, nc, 3)
			requireGemmMatchesReference(t, rand.New(rand.NewSource(42)), "blocked")
		})
	}
}

// TestSmallGemmBitIdenticalToReference pins small products bit-identical to
// the scalar reference: at the tuned block sizes each adversarial shape fits
// one tile and one k panel, the path small products take through the tiled
// kernel, and every micro-tile remainder class (odd rows, odd columns, odd k)
// must produce the same ascending-k chain per element.
func TestSmallGemmBitIdenticalToReference(t *testing.T) {
	requireGemmMatchesReference(t, rand.New(rand.NewSource(7)), "small")
}

// TestFusedEpiloguesBitIdentical pins the fused bias and bias+ReLU+mask
// kernels bit-identical to the unfused sequence (matmul, then bias row add,
// then rectify-and-record) across worker counts and shapes whose 64-bit mask
// words straddle rows and tiles.
func TestFusedEpiloguesBitIdentical(t *testing.T) {
	for _, nc := range []int{8, 12} {
		t.Run(fmt.Sprintf("4x%dx3", nc), func(t *testing.T) {
			shrinkBlocks(t, 4, nc, 3)
			requireFusedEpiloguesMatch(t, rand.New(rand.NewSource(7)))
		})
	}
}

// requireFusedEpiloguesMatch runs the fused-epilogue comparison of
// TestFusedEpiloguesBitIdentical at the current block sizes.
func requireFusedEpiloguesMatch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	shapes := []gemmCase{{1, 1, 1}, {3, 5, 4}, {9, 13, 7}, {27, 5, 6}, {16, 8, 9}, {5, 3, 0}, {8, 26, 7}}
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		for _, c := range shapes {
			a := randMat(rng, c.m, c.k)
			b := randMat(rng, c.k, c.n)
			bias := make([]float64, c.n)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}

			want := New(c.m, c.n)
			refGemm(gemmNN, want, a, b, false)
			want.AddRowVec(bias)

			got := randMat(rng, c.m, c.n)
			MatMulAddRowVecInto(got, a, b, bias)
			requireSameBits(t, "bias", got, want)

			wantMask := make([]uint64, (c.m*c.n+63)/64)
			for i, v := range want.Data {
				if v > 0 {
					wantMask[i>>6] |= 1 << (uint(i) & 63)
				} else {
					want.Data[i] = 0
				}
			}
			gotMask := make([]uint64, len(wantMask))
			got = randMat(rng, c.m, c.n)
			MatMulBiasReLUInto(got, a, b, bias, gotMask)
			requireSameBits(t, "bias+relu", got, want)
			for i := range wantMask {
				if gotMask[i] != wantMask[i] {
					t.Fatalf("relu mask word %d = %x, want %x", i, gotMask[i], wantMask[i])
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestGemmWorkerCountDeterminism runs full-size (tuned-block) products that
// straddle the 128/192 block boundaries and requires bitwise-equal results
// for every worker count — the property the repo's schedule-equivalence
// assertions rest on.
func TestGemmWorkerCountDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := gemmCase{200, 150, 97} // 2x2 tiles at tuned sizes, 2 ragged columns
	for ki, kind := range []gemmKind{gemmNN, gemmTN, gemmNT} {
		a, b := operands(rng, kind, c)
		base := New(c.m, c.n)
		prev := SetWorkers(1)
		gemm(kind, base, a, b, false, nil, nil)
		want := New(c.m, c.n)
		refGemm(kind, want, a, b, false)
		requireSameBits(t, []string{"NN", "TN", "NT"}[ki]+" vs reference", base, want)
		for _, w := range []int{2, 8} {
			SetWorkers(w)
			got := New(c.m, c.n)
			gemm(kind, got, a, b, false, nil, nil)
			requireSameBits(t, []string{"NN", "TN", "NT"}[ki], got, base)
		}
		SetWorkers(prev)
	}
}

// TestWarmKernelZeroAlloc is the warm-kernel allocation gate: once the pack
// and dispatch pools are primed, parallel blocked kernels must not allocate —
// the property that keeps large-layer Executor.Step inside its alloc budget.
func TestWarmKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 192, 192)
	b := randMat(rng, 192, 192)
	out := New(192, 192)
	gw := New(192, 192)
	run := func() {
		MatMulInto(out, a, b)
		MatMulATBAddInto(gw, a, b)
		MatMulABTInto(out, a, b)
	}
	run() // prime pools
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm parallel kernels allocated %v allocs/run, want 0", allocs)
	}
}

// TestConcurrentGemmCallers drives the shared pool from several goroutines at
// once (each product spans 2x2 tiles) and checks every result, so the race
// detector sees the dispatch protocol under contention.
func TestConcurrentGemmCallers(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 200, 96)
	b := randMat(rng, 96, 150)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(200, 150)
			for iter := 0; iter < 10; iter++ {
				MatMulInto(out, a, b)
				for i := range want.Data {
					if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Errorf("concurrent result diverged at element %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
