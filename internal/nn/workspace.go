package nn

import (
	"math"

	"dapple/internal/tensor"
)

// ReLUMask records which elements a ReLU let through, packed one bit per
// element. It is the stash a ReLU keeps between forward and backward — 64x
// smaller than the activation clone it replaces, and poolable through a
// Workspace.
type ReLUMask struct {
	// N is the element count the mask covers.
	N int
	// Bits holds ceil(N/64) words; bit i set means element i was positive
	// (the gradient passes).
	Bits []uint64
}

// NewReLUMask returns a zeroed mask over n elements.
func NewReLUMask(n int) *ReLUMask {
	return &ReLUMask{N: n, Bits: make([]uint64, (n+63)/64)}
}

// resize re-targets the mask at n elements, zeroing it, growing Bits only
// when capacity is insufficient (the pooled-reuse path).
func (mk *ReLUMask) resize(n int) {
	words := (n + 63) / 64
	if cap(mk.Bits) < words {
		mk.Bits = make([]uint64, words)
	} else {
		mk.Bits = mk.Bits[:words]
		for i := range mk.Bits {
			mk.Bits[i] = 0
		}
	}
	mk.N = n
}

// forward rectifies y in place (zeroing non-positive elements) and records
// the pass-through pattern in the mask, which must cover len(y.Data) zeroed
// bits.
func (mk *ReLUMask) forward(y *tensor.Matrix) {
	for i, v := range y.Data {
		if v > 0 {
			mk.Bits[i>>6] |= 1 << (uint(i) & 63)
		} else {
			y.Data[i] = 0
		}
	}
}

// Apply zeroes the elements of m the mask blocked — the ReLU backward rule.
// It ANDs each element's bits with all ones or all zeros, taken from its mask
// bit, so a blocked element becomes +0 exactly as a store of 0 would, without
// a branch on bits that follow no pattern.
func (mk *ReLUMask) Apply(m *tensor.Matrix) {
	d := m.Data
	for w := 0; w*64 < len(d); w++ {
		bits := mk.Bits[w]
		seg := d[w*64 : min(len(d), w*64+64)]
		for i, v := range seg {
			seg[i] = math.Float64frombits(math.Float64bits(v) & -(bits & 1))
			bits >>= 1
		}
	}
}

// Workspace is the per-worker buffer arena of the allocation-free training
// path: a shape-keyed matrix pool plus a ReLU-mask free list. Like
// tensor.Pool it is single-goroutine; the runtime gives every worker its own.
type Workspace struct {
	// Pool leases the matrix buffers of the workspace execution path.
	Pool *tensor.Pool

	masks []*ReLUMask
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{Pool: tensor.NewPool()}
}

// Get leases a rows x cols matrix with undefined contents.
func (w *Workspace) Get(rows, cols int) *tensor.Matrix { return w.Pool.Get(rows, cols) }

// Put returns a leased matrix; nil is ignored.
func (w *Workspace) Put(m *tensor.Matrix) { w.Pool.Put(m) }

// GetMask leases a zeroed n-element ReLU mask.
func (w *Workspace) GetMask(n int) *ReLUMask {
	if l := len(w.masks); l > 0 {
		mk := w.masks[l-1]
		w.masks[l-1] = nil
		w.masks = w.masks[:l-1]
		mk.resize(n)
		return mk
	}
	return NewReLUMask(n)
}

// PutMask returns a leased mask to the free list.
func (w *Workspace) PutMask(mk *ReLUMask) {
	if mk != nil {
		w.masks = append(w.masks, mk)
	}
}

// WorkspaceLayer is the buffer-reuse execution path a Layer may additionally
// implement. It trades the reference API's defensive copies for an ownership
// contract the pipelined executor upholds:
//
//   - ForwardWS may retain x (as a view, without cloning) inside the returned
//     context; the caller guarantees x stays unmodified until the matching
//     BackwardWS (or a discard) completes.
//   - The returned output is leased from ws and owned by the caller.
//   - BackwardWS may mutate dy in place and return it as the input gradient;
//     callers must treat dy as consumed. Contexts holding workspace-leased
//     state (masks) are released by BackwardWS itself.
//
// The reference Forward/Backward methods remain the safe, allocating API;
// both paths compute the same math (workspace results differ only by the
// float rounding of fused accumulation).
type WorkspaceLayer interface {
	// ForwardWS computes the layer output into a workspace buffer, returning
	// the backward stash (which may reference x).
	ForwardWS(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, Ctx)

	// BackwardWS consumes a ForwardWS context and the output gradient
	// (possibly in place), accumulates parameter gradients, and returns the
	// input gradient.
	BackwardWS(ws *Workspace, ctx Ctx, dy *tensor.Matrix) *tensor.Matrix
}

// ForwardWS implements WorkspaceLayer: one fused matmul+bias kernel into a
// pooled buffer (the bias rides the matmul's output pass), stashing x itself
// instead of a clone.
func (d *Dense) ForwardWS(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, Ctx) {
	y := ws.Get(x.Rows, d.W.Cols)
	tensor.MatMulAddRowVecInto(y, x, d.W, d.B.Data)
	return y, x
}

// BackwardWS implements WorkspaceLayer: weight and bias gradients accumulate
// in place (fused kernels), the input gradient lands in a pooled buffer.
func (d *Dense) BackwardWS(ws *Workspace, ctx Ctx, dy *tensor.Matrix) *tensor.Matrix {
	x := ctx.(*tensor.Matrix)
	tensor.MatMulATBAddInto(d.GW, x, dy)
	tensor.SumRowsInto(d.GB.Data, dy)
	dx := ws.Get(dy.Rows, d.W.Rows)
	tensor.MatMulABTInto(dx, dy, d.W)
	return dx
}

// ForwardWS implements WorkspaceLayer: output in a pooled buffer, stash a
// pooled bit mask.
func (ReLU) ForwardWS(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, Ctx) {
	y := ws.Get(x.Rows, x.Cols)
	copy(y.Data, x.Data)
	mask := ws.GetMask(len(y.Data))
	mask.forward(y)
	return y, mask
}

// BackwardWS implements WorkspaceLayer: gates dy in place and releases the
// mask.
func (ReLU) BackwardWS(ws *Workspace, ctx Ctx, dy *tensor.Matrix) *tensor.Matrix {
	mask := ctx.(*ReLUMask)
	mask.Apply(dy)
	ws.PutMask(mask)
	return dy
}

// ForwardWS implements WorkspaceLayer. The stash is the output buffer itself
// (tanh' needs the output values); it stays valid because the run that owns
// it keeps every layer output alive until backward.
func (Tanh) ForwardWS(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, Ctx) {
	y := ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = math.Tanh(v)
	}
	return y, y
}

// BackwardWS implements WorkspaceLayer: scales dy in place by 1 - y².
func (Tanh) BackwardWS(_ *Workspace, ctx Ctx, dy *tensor.Matrix) *tensor.Matrix {
	y := ctx.(*tensor.Matrix)
	for i, v := range y.Data {
		dy.Data[i] *= 1 - v*v
	}
	return dy
}

// WSRun is the reusable per-invocation state of one workspace-mode forward
// pass through a Network: the per-layer contexts plus every layer output the
// run leased (all kept alive until the matching BackwardWS or DiscardWS, so
// stashes may be views). A caller keeps one WSRun per in-flight micro-batch
// and reuses it across iterations; its slices reach steady-state capacity
// after the first pass.
type WSRun struct {
	ctxs  []Ctx
	owned []*tensor.Matrix
}

// StashBytes sums the retained bytes of the run's layer contexts — the
// quantity the schedule memory model tracks per in-flight micro-batch.
func (r *WSRun) StashBytes() int64 {
	var n int64
	for _, c := range r.ctxs {
		n += StashBytes(c)
	}
	return n
}

// DetachOutput removes the run's final layer output from its owned set and
// returns it, transferring ownership to the caller (who must eventually Put
// it back). The re-computation send path uses this to discard a forward run
// while keeping the published output views valid until the downstream stage
// finishes reading them.
func (r *WSRun) DetachOutput() *tensor.Matrix {
	if len(r.owned) == 0 {
		return nil
	}
	out := r.owned[len(r.owned)-1]
	r.owned[len(r.owned)-1] = nil
	r.owned = r.owned[:len(r.owned)-1]
	return out
}

// reset clears the run for reuse, keeping slice capacity.
func (r *WSRun) reset() {
	for i := range r.ctxs {
		r.ctxs[i] = nil
	}
	for i := range r.owned {
		r.owned[i] = nil
	}
	r.ctxs = r.ctxs[:0]
	r.owned = r.owned[:0]
}

// ForwardWS runs every layer through the workspace path (falling back to the
// reference Forward for layers without one), filling run with the backward
// state. The returned output is owned by run — it stays valid until
// BackwardWS or DiscardWS releases the run, and callers must not release it
// separately. x must stay unmodified for the same window.
// A Dense layer directly followed by a ReLU runs as ONE fused kernel
// (matmul + bias + rectify + mask in a single output pass): the pre-ReLU
// activation is never materialized — backward needs only the Dense input and
// the ReLU mask — so the pair costs one pooled buffer instead of two and a
// third of the memory traffic. The fused pair still appends one context per
// layer, keeping BackwardWS's layer-indexed context walk unchanged.
func (n *Network) ForwardWS(ws *Workspace, x *tensor.Matrix, run *WSRun) *tensor.Matrix {
	run.reset()
	for i := 0; i < len(n.Layers); i++ {
		l := n.Layers[i]
		if d, ok := l.(*Dense); ok && i+1 < len(n.Layers) {
			if _, isReLU := n.Layers[i+1].(ReLU); isReLU {
				y := ws.Get(x.Rows, d.W.Cols)
				mask := ws.GetMask(len(y.Data))
				tensor.MatMulBiasReLUInto(y, x, d.W, d.B.Data, mask.Bits)
				run.ctxs = append(run.ctxs, x, mask)
				run.owned = append(run.owned, y)
				x = y
				i++
				continue
			}
		}
		var y *tensor.Matrix
		var c Ctx
		if wl, ok := l.(WorkspaceLayer); ok {
			y, c = wl.ForwardWS(ws, x)
		} else {
			y, c = l.Forward(x)
		}
		run.ctxs = append(run.ctxs, c)
		run.owned = append(run.owned, y)
		x = y
	}
	return x
}

// BackwardWS consumes a ForwardWS run in reverse, accumulating parameter
// gradients, then releases every buffer the run owned back to ws. dy is
// consumed (it may be mutated in place, and the returned input gradient may
// BE dy when the first layer works in place); the returned gradient is
// workspace-leased unless it aliases dy, so release it with
//
//	if dx != dy { ws.Put(dx) }
//	ws.Put(dy) // if dy was workspace-leased by the caller
func (n *Network) BackwardWS(ws *Workspace, run *WSRun, dy *tensor.Matrix) *tensor.Matrix {
	return n.BackwardWSLayers(ws, run, dy, nil)
}

// BackwardWSLayers is BackwardWS with a per-layer gradient-readiness hook:
// after layer i's BackwardWS returns — at which point the gradients of every
// parameter layer i owns are fully accumulated and will not be touched again
// this pass — onLayer(i) fires on the calling goroutine. Because backward
// walks layers in descending index order, the hook reports readiness from
// the network's tail toward its head, which is what lets the executor launch
// a gradient bucket's collective while earlier layers are still computing.
// A nil onLayer skips the hook (the plain BackwardWS path).
func (n *Network) BackwardWSLayers(ws *Workspace, run *WSRun, dy *tensor.Matrix, onLayer func(layer int)) *tensor.Matrix {
	orig := dy
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		var dx *tensor.Matrix
		if wl, ok := l.(WorkspaceLayer); ok {
			dx = wl.BackwardWS(ws, run.ctxs[i], dy)
		} else {
			dx = l.Backward(run.ctxs[i], dy)
		}
		if dx != dy && dy != orig {
			ws.Put(dy)
		}
		dy = dx
		if onLayer != nil {
			onLayer(i)
		}
	}
	for _, b := range run.owned {
		ws.Put(b)
	}
	run.reset()
	return dy
}

// DiscardWS releases a ForwardWS run without running backward — the
// re-computation path, which drops activation state after the forward send
// and replays the forward pass later. Owned outputs and mask contexts return
// to the workspace.
func (n *Network) DiscardWS(ws *Workspace, run *WSRun) {
	for _, c := range run.ctxs {
		if mk, ok := c.(*ReLUMask); ok {
			ws.PutMask(mk)
		}
	}
	for _, b := range run.owned {
		ws.Put(b)
	}
	run.reset()
}
