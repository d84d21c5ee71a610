package tensor

import (
	"fmt"
	"sync/atomic"
)

// This file is the blocked GEMM core every matmul variant routes through,
// for every shape. The structure is the classic GotoBLAS decomposition, sized
// for L1/L2:
//
//   - The output is split into disjoint blockMC x blockNC tiles; the tile
//     grid is the unit of parallelism (see parallel.go). A single-tile
//     product runs inline on the caller, without pool dispatch.
//   - Each tile walks the k dimension in blockKC panels. The micro-kernel
//     reads a in place through row and k strides, and b in place through its
//     row stride for NN and TN. Only NT, whose logical b columns are b's
//     rows, packs each panel into a recycled panel of 8-column slivers, so
//     the micro-kernel reads each k step's 8 b values contiguously.
//   - A 4x8 register-blocked micro-kernel does the FLOPs. On amd64 with AVX
//     (checked once at start-up) it is assembly (kernel_amd64.s): 8
//     four-lane YMM accumulators, VFMADD231PD on GOAMD64=v3/v4 and
//     VMULPD+VADDPD otherwise. Elsewhere, on amd64 hosts without AVX, and
//     under the race detector, the portable kern4x8Go runs instead. No
//     operand layout is transposed apart from NT's b slivers.
//
// Determinism: a tile owns its output elements exclusively, and it runs its
// k panels in increasing order with increasing kk inside each panel — so
// every output element is one in-order fmadd accumulation chain (the chain
// the refGemm test oracle spells out) no matter how many workers execute
// tiles. Both kernels and the edge loop round each step exactly like fmadd
// in that build. Fused bias/ReLU epilogues run once per tile after its final
// panel, which likewise touches each element exactly once.

// Cache block sizes for the tiled core. At float64 these default to a
// 192-deep b panel of 128 columns (192 KiB, L2-resident) against
// 128-row output tiles. They are variables, not constants, so property
// tests can shrink them to force block-boundary-straddling and multi-tile
// paths on small, checkable shapes.
var (
	blockMC = 128
	blockNC = 128
	blockKC = 192
)

// shapeErr formats the panic message for a kernel shape mismatch.
func shapeErr(op string, got, want *Matrix) string {
	return fmt.Sprintf("tensor: %s shape %dx%d vs %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
}

// panels recycles sliver panels between tile runs so warm kernels allocate
// nothing. It is a channel, not a sync.Pool: a pool may drop its items at any
// GC, and at random under the race detector, which would make even a warm
// single-tile product allocate. The capacity exceeds the tile runs that are
// live at once in practice (concurrent GEMM callers plus pool helpers); a
// panel returned to a full list is left to the GC.
var panels = make(chan []float64, 64)

// getPanel returns a recycled panel (or a new one) of length n.
func getPanel(n int) []float64 {
	select {
	case p := <-panels:
		if cap(p) >= n {
			return p[:n]
		}
	default:
	}
	return make([]float64, n)
}

// putPanel returns a panel to the free list.
func putPanel(p []float64) {
	select {
	case panels <- p:
	default:
	}
}

// gemmJob is one GEMM dispatch: operands, optional fused epilogues, and the
// tile grid its disjoint output tiles are indexed by. Parallel runs copy the
// job by value; all methods treat it as read-only apart from writes to out.
type gemmJob struct {
	kind       gemmKind
	out, a, b  *Matrix
	accumulate bool
	bias       []float64
	reluMask   []uint64
	m, n, k    int
	tilesN     int

	// Vector-kernel dispatch (see vec.go). When vecOp is non-zero the job is
	// an element-wise vector kernel and the gemm fields above are unused; the
	// fields live here so parRun's by-value job copy stays allocation-free
	// instead of forcing an interface indirection.
	vecOp  vecKind
	vd, vs []float64
	alpha  float64
	vspan  int
}

// gemmKind selects which of the three operand layouts a GEMM computes.
type gemmKind uint8

const (
	// gemmNN computes out = a @ b.
	gemmNN gemmKind = iota
	// gemmTN computes out = aᵀ @ b (weight gradients).
	gemmTN
	// gemmNT computes out = a @ bᵀ (input gradients).
	gemmNT
)

// gemmDims returns the logical (m, n, k) of a kind's product.
func gemmDims(kind gemmKind, a, b *Matrix) (m, n, k int) {
	switch kind {
	case gemmNN:
		return a.Rows, b.Cols, a.Cols
	case gemmTN:
		return a.Cols, b.Cols, a.Rows
	default: // gemmNT
		return a.Rows, b.Rows, a.Cols
	}
}

// gemm routes one GEMM variant through the tiled pool-parallel core. bias
// (len n, added to every row) and reluMask (pass-through bits at flat index
// i*n+j) are optional fused epilogues; results are bit-identical for any
// worker count.
func gemm(kind gemmKind, out, a, b *Matrix, accumulate bool, bias []float64, reluMask []uint64) {
	m, n, k := gemmDims(kind, a, b)
	g := gemmJob{
		kind: kind, out: out, a: a, b: b, accumulate: accumulate,
		bias: bias, reluMask: reluMask, m: m, n: n, k: k,
	}
	tm := (m + blockMC - 1) / blockMC
	tn := (n + blockNC - 1) / blockNC
	g.tilesN = tn
	parallelTiles(&g, tm*tn)
}

// runTile computes one blockMC x blockNC output tile end to end: zero (or
// keep, when accumulating) the tile, fold in every k panel through the 4x8
// micro-kernel, then apply the fused epilogues. Vector-kernel jobs dispatch
// through the same entry point so the pool protocol stays shared.
func (g *gemmJob) runTile(t int) {
	if g.vecOp != vecNone {
		g.runVecSpan(t)
		return
	}
	ti, tj := t/g.tilesN, t%g.tilesN
	i0 := ti * blockMC
	i1 := min(i0+blockMC, g.m)
	j0 := tj * blockNC
	j1 := min(j0+blockNC, g.n)
	oc := g.out.Cols
	if !g.accumulate {
		for i := i0; i < i1; i++ {
			clear(g.out.Data[i*oc+j0 : i*oc+j1])
		}
	}
	// Only NT packs b. Its panel is sized for the largest tile so a recycled
	// panel never regrows: a warm kernel must not allocate whichever tile
	// shape a panel served last.
	var bp []float64
	if g.kind == gemmNT {
		bp = getPanel(blockNC / 8 * 8 * blockKC)
		defer putPanel(bp)
	}
	for pc := 0; pc < g.k; pc += blockKC {
		g.panel(i0, i1, j0, j1, pc, min(blockKC, g.k-pc), bp)
	}
	g.epilogue(i0, i1, j0, j1)
}

// packB packs the k panel [pc, pc+kcb) of NT's logical b columns [j0, j1),
// which are b's rows, into 8-column slivers: sliver s holds logical
// b[pc+kk][j0+8s+x] at bp[s*8*kcb+kk*8+x], so the micro-kernel reads each k
// step's 8 b values contiguously. Only full slivers are packed; the edge loop
// reads the remaining columns in place.
func (g *gemmJob) packB(bp []float64, j0, j1, pc, kcb int) {
	bd, bc := g.b.Data, g.b.Cols
	for j := j0; j+8 <= j1; j += 8 {
		s := bp[(j-j0)*kcb:][:8*kcb]
		r := bd[j*bc+pc:]
		r0, r1, r2, r3 := r[:kcb], r[bc:][:kcb], r[2*bc:][:kcb], r[3*bc:][:kcb]
		r4, r5, r6, r7 := r[4*bc:][:kcb], r[5*bc:][:kcb], r[6*bc:][:kcb], r[7*bc:][:kcb]
		for kk, v := range r0 {
			d := s[kk*8:][:8]
			d[0], d[1], d[2], d[3] = v, r1[kk], r2[kk], r3[kk]
			d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
		}
	}
}

// bStrides returns the flat-index steps of logical b[kk][j] along kk and j:
// b is row-major for NN/TN and read column-wise as bᵀ for NT.
func (g *gemmJob) bStrides() (bks, bjs int) {
	if g.kind == gemmNT {
		return 1, g.b.Cols
	}
	return g.b.Cols, 1
}

// panel folds one k panel into out[i0:i1, j0:j1]. Full 4x8 blocks go to the
// micro-kernel, which reads a in place through its strides, and b in place
// (NN, TN) or from slivers packed into bp (NT). Each operand is cut to
// exactly the extent the kernel touches, so an index bug panics here rather
// than letting assembly read past a buffer. Rows and columns past the last
// full block take the same per-element chain in edge.
func (g *gemmJob) panel(i0, i1, j0, j1, pc, kcb int, bp []float64) {
	ad, od, oc := g.a.Data, g.out.Data, g.out.Cols
	ars, aks := g.aStrides()
	aExt := 3*ars + (kcb-1)*aks + 1
	// Output column j's b block starts at bd[bOff+(j-j0)*bjs].
	bks, bjs := g.bStrides()
	bd, bOff := g.b.Data, pc*bks+j0*bjs
	if g.kind == gemmNT {
		g.packB(bp, j0, j1, pc, kcb)
		bd, bOff, bks, bjs = bp, 0, 8, kcb
	}
	bExt := (kcb-1)*bks + 8
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai := ad[i*ars+pc*aks:][:aExt]
		j := j0
		for ; j+8 <= j1; j += 8 {
			microKernel(kcb, ai, ars, aks, bd[bOff+(j-j0)*bjs:][:bExt], bks, od[i*oc+j:][:3*oc+8], oc)
		}
		g.edge(i, i+4, j, j1, pc, kcb)
	}
	g.edge(i, i1, j0, j1, pc, kcb)
}

// aStrides returns the flat-index steps of logical a[i][kk] along i and kk:
// a is row-major for NN/NT and read column-wise as aᵀ for TN.
func (g *gemmJob) aStrides() (ars, aks int) {
	if g.kind == gemmTN {
		return 1, g.a.Cols
	}
	return g.a.Cols, 1
}

// edge folds the k panel into out[i0:i1, j0:j1] one element at a time,
// reading a and b in place.
func (g *gemmJob) edge(i0, i1, j0, j1, pc, kcb int) {
	ad, bd, od, oc := g.a.Data, g.b.Data, g.out.Data, g.out.Cols
	ars, aks := g.aStrides()
	bks, bjs := g.bStrides()
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			acc := od[i*oc+j]
			for kk := pc; kk < pc+kcb; kk++ {
				acc = fmadd(ad[i*ars+kk*aks], bd[kk*bks+j*bjs], acc)
			}
			od[i*oc+j] = acc
		}
	}
}

// kern4x8Go is the portable micro-kernel: c[i*ldc+j] += Σ a[i*ars+kk*aks] ·
// b[kk*bks+j] over kk ascending for i in [0, 4), j in [0, 8), one fmadd chain
// per output element. The assembly kern4x8 has the same contract, bit for
// bit.
func kern4x8Go(k int, a []float64, ars, aks int, b []float64, bks int, c []float64, ldc int) {
	for i := 0; i < 4; i++ {
		cr := c[i*ldc:][:8]
		c0, c1, c2, c3, c4, c5, c6, c7 := cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7]
		for kk := 0; kk < k; kk++ {
			av := a[i*ars+kk*aks]
			br := b[kk*bks:][:8]
			c0 = fmadd(av, br[0], c0)
			c1 = fmadd(av, br[1], c1)
			c2 = fmadd(av, br[2], c2)
			c3 = fmadd(av, br[3], c3)
			c4 = fmadd(av, br[4], c4)
			c5 = fmadd(av, br[5], c5)
			c6 = fmadd(av, br[6], c6)
			c7 = fmadd(av, br[7], c7)
		}
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// epilogue applies the fused bias and ReLU to the finished tile. Mask words
// are updated atomically: 64-bit mask words need not align with tile
// boundaries, so concurrent tiles may share a word (ORing disjoint bits is
// order-independent, keeping the result deterministic).
func (g *gemmJob) epilogue(i0, i1, j0, j1 int) {
	if g.bias == nil && g.reluMask == nil {
		return
	}
	od, oc := g.out.Data, g.out.Cols
	for i := i0; i < i1; i++ {
		row := od[i*oc : i*oc+oc]
		if g.bias != nil {
			bias := g.bias
			for j := j0; j < j1; j++ {
				row[j] += bias[j]
			}
		}
		if g.reluMask != nil {
			g.reluSpan(row, i*oc, j0, j1)
		}
	}
}

// reluSpan rectifies row[j0:j1] in place and records pass-through bits (flat
// element index base+j, matching nn's ReLU mask layout), batching bit sets
// into one mask-word write per word touched.
func (g *gemmJob) reluSpan(row []float64, base, j0, j1 int) {
	mask := g.reluMask
	for j := j0; j < j1; {
		word := (base + j) >> 6
		end := min(j1, j+64-((base+j)&63))
		var bits uint64
		for ; j < end; j++ {
			if row[j] > 0 {
				bits |= 1 << (uint(base+j) & 63)
			} else {
				row[j] = 0
			}
		}
		if bits != 0 {
			atomic.OrUint64(&mask[word], bits)
		}
	}
}
