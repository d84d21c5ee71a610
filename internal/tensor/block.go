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
//   - Each tile walks the k dimension in blockKC panels. Per panel, b's
//     slice is packed into a recycled panel of zero-padded 4-column slivers,
//     so the micro-kernel reads each k step's 4 b values contiguously.
//   - A 4x4 register-blocked micro-kernel does the FLOPs. On amd64 it is
//     assembly (kernel_amd64.s): 8 two-lane XMM accumulators, VFMADD231PD
//     on GOAMD64=v3/v4 and MULPD+ADDPD otherwise. Elsewhere, and under the
//     race detector, the portable kern4x4Go runs instead. a is read in place
//     through row and k strides, so no operand layout is transposed.
//
// Determinism: a tile owns its output elements exclusively, and it runs its
// k panels in increasing order with increasing kk inside each panel — so
// every output element is one in-order fmadd accumulation chain (the chain
// the refGemm test oracle spells out) no matter how many workers execute
// tiles. Both kernels and the edge loop round each step exactly like fmadd
// in that build. Fused bias/ReLU epilogues run once per tile after its final
// panel, which likewise touches each element exactly once.

// Cache block sizes for the tiled core. At float64 these default to a
// 192-deep packed b panel of 128 columns (192 KiB, L2-resident) against
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
// keep, when accumulating) the tile, fold in every k panel through the 4x4
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
	// Sized for the largest tile so a recycled panel never regrows: a warm
	// kernel must not allocate whichever tile shape a panel served last.
	bp := getPanel((blockNC + 3) / 4 * 4 * blockKC)
	for pc := 0; pc < g.k; pc += blockKC {
		kcb := min(blockKC, g.k-pc)
		g.packB(bp, j0, j1, pc, kcb)
		g.panel(i0, i1, j0, j1, pc, kcb, bp)
	}
	putPanel(bp)
	g.epilogue(i0, i1, j0, j1)
}

// packB packs the k panel [pc, pc+kcb) of b's logical columns [j0, j1) into
// 4-column slivers: sliver s holds logical b[pc+kk][j0+4s+x] at
// bp[s*4*kcb+kk*4+x], lanes past j1 zeroed. NN and TN copy 4-wide row
// segments; NT, whose logical columns are b's rows, interleaves 4 rows.
func (g *gemmJob) packB(bp []float64, j0, j1, pc, kcb int) {
	bd, bc := g.b.Data, g.b.Cols
	for j := j0; j < j1; j += 4 {
		s := bp[(j-j0)*kcb:][:4*kcb]
		switch w := j1 - j; {
		case w < 4:
			clear(s)
			for x := 0; x < w; x++ {
				for kk := 0; kk < kcb; kk++ {
					s[kk*4+x] = bd[g.bIndex(pc+kk, j+x)]
				}
			}
		case g.kind == gemmNT:
			r0 := bd[j*bc+pc:][:kcb]
			r1 := bd[(j+1)*bc+pc:][:kcb]
			r2 := bd[(j+2)*bc+pc:][:kcb]
			r3 := bd[(j+3)*bc+pc:][:kcb]
			for kk, v := range r0 {
				d := s[kk*4:][:4]
				d[0], d[1], d[2], d[3] = v, r1[kk], r2[kk], r3[kk]
			}
		default:
			for kk := 0; kk < kcb; kk++ {
				r := bd[(pc+kk)*bc+j:][:4]
				d := s[kk*4:][:4]
				d[0], d[1], d[2], d[3] = r[0], r[1], r[2], r[3]
			}
		}
	}
}

// bIndex returns the flat index of logical b[kk][j].
func (g *gemmJob) bIndex(kk, j int) int {
	if g.kind == gemmNT {
		return j*g.b.Cols + kk
	}
	return kk*g.b.Cols + j
}

// panel folds one packed k panel into out[i0:i1, j0:j1]. Full 4x4 blocks go
// to the micro-kernel, which reads a in place through its strides. Each
// operand is cut to exactly the extent the kernel touches, so an index bug
// panics here rather than letting assembly read past a buffer. Rows and
// columns past the last full block take the same per-element chain in edge.
func (g *gemmJob) panel(i0, i1, j0, j1, pc, kcb int, bp []float64) {
	ad, od, oc := g.a.Data, g.out.Data, g.out.Cols
	ars, aks := g.aStrides()
	aExt := 3*ars + (kcb-1)*aks + 1
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai := ad[i*ars+pc*aks:][:aExt]
		j := j0
		for ; j+4 <= j1; j += 4 {
			microKernel(kcb, ai, ars, aks, bp[(j-j0)*kcb:][:4*kcb], od[i*oc+j:][:3*oc+4], oc)
		}
		g.edge(i, i+4, j, j1, j0, pc, kcb, bp)
	}
	g.edge(i, i1, j0, j1, j0, pc, kcb, bp)
}

// aStrides returns the flat-index steps of logical a[i][kk] along i and kk:
// a is row-major for NN/NT and read column-wise as aᵀ for TN.
func (g *gemmJob) aStrides() (ars, aks int) {
	if g.kind == gemmTN {
		return 1, g.a.Cols
	}
	return g.a.Cols, 1
}

// edge folds the panel into out[i0:i1, j0:j1] one element at a time, reading
// b from the tile's slivers (the tile starts at column jt).
func (g *gemmJob) edge(i0, i1, j0, j1, jt, pc, kcb int, bp []float64) {
	ad, od, oc := g.a.Data, g.out.Data, g.out.Cols
	ars, aks := g.aStrides()
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			s := bp[(j-jt)/4*4*kcb+(j-jt)%4:]
			acc := od[i*oc+j]
			for kk := 0; kk < kcb; kk++ {
				acc = fmadd(ad[i*ars+(pc+kk)*aks], s[kk*4], acc)
			}
			od[i*oc+j] = acc
		}
	}
}

// kern4x4Go is the portable micro-kernel: c[i*ldc+j] += Σ a[i*ars+kk*aks] ·
// b[kk*4+j] over kk ascending for i, j in [0, 4), one fmadd chain per output
// element. The assembly kern4x4 has the same contract, bit for bit.
func kern4x4Go(k int, a []float64, ars, aks int, b, c []float64, ldc int) {
	for i := 0; i < 4; i++ {
		cr := c[i*ldc : i*ldc+4]
		c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
		for kk := 0; kk < k; kk++ {
			av := a[i*ars+kk*aks]
			br := b[kk*4 : kk*4+4]
			c0 = fmadd(av, br[0], c0)
			c1 = fmadd(av, br[1], c1)
			c2 = fmadd(av, br[2], c2)
			c3 = fmadd(av, br[3], c3)
		}
		cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
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
