package train

import (
	"fmt"

	"dapple/internal/nn"
	"dapple/internal/tensor"
)

// Batch is one micro-batch of classification examples.
type Batch struct {
	X *tensor.Matrix
	Y []int
}

// Validate checks shape consistency.
func (b Batch) Validate() error {
	if b.X == nil || b.X.Rows != len(b.Y) {
		return fmt.Errorf("train: batch with %d labels for %d rows", len(b.Y), rowsOf(b.X))
	}
	return nil
}

func rowsOf(m *tensor.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Rows
}

// SequentialStep runs one optimizer step over the micro-batches on a single
// "device": forward+backward each micro-batch in order, accumulate gradients,
// average by the micro-batch count, and apply — the paper's single-device
// baseline and the ground truth all parallel schedules must match.
func SequentialStep(net *nn.Network, micros []Batch, opt nn.Optimizer) (float64, error) {
	if len(micros) == 0 {
		return 0, fmt.Errorf("train: no micro-batches")
	}
	var loss float64
	for _, b := range micros {
		if err := b.Validate(); err != nil {
			return 0, err
		}
		out, ctxs := net.Forward(b.X)
		l, dy := nn.SoftmaxCrossEntropy(out, b.Y)
		loss += l
		net.Backward(ctxs, dy)
	}
	scaleGrads(net.Params(), 1/float64(len(micros)))
	opt.Step(net.Params())
	return loss / float64(len(micros)), nil
}

func scaleGrads(params []nn.Param, s float64) {
	for _, p := range params {
		p.G.Scale(s)
	}
}

// setGradVector scatters a flat vector back into the gradient tensors.
func setGradVector(params []nn.Param, v []float64) {
	at := 0
	for _, p := range params {
		copy(p.G.Data, v[at:at+len(p.G.Data)])
		at += len(p.G.Data)
	}
}
