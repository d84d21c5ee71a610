package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dapple/internal/core"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/train"
)

// timeCall returns fn's median duration in seconds over batches of calls,
// each batch long enough (~2 ms) for the clock to resolve it. Each batch is
// one span named name.
func timeCall(name string, batches int, tr *tracer, fn func()) float64 {
	fn() // warm pools and caches
	n := 1
	for t0 := time.Now(); ; n *= 2 {
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond || n >= 1<<16 {
			break
		}
		t0 = time.Now()
	}
	timer := startTimer()
	for b := 0; b < batches; b++ {
		s0 := tr.now()
		timer.op(func() error {
			for i := 0; i < n; i++ {
				fn()
			}
			return nil
		})
		tr.span(name, "probe", s0)
	}
	per, _ := timer.stop()
	for b := range per {
		per[b] /= float64(n)
	}
	return median(per)
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// gemmProbe times the three GEMM kernels of a Dense layer's step at a
// rows x width activation and width x width weight, in GFLOP/s.
func gemmProbe(rows, width int, tr *tracer) float64 {
	rng := rand.New(rand.NewSource(1))
	x, dy, w := randMatrix(rng, rows, width), randMatrix(rng, rows, width), randMatrix(rng, width, width)
	y, gw := tensor.New(rows, width), tensor.New(width, width)
	t := timeCall("tensor.MatMulInto", 7, tr, func() { tensor.MatMulInto(y, x, w) }) +
		timeCall("tensor.MatMulABTInto", 7, tr, func() { tensor.MatMulABTInto(y, dy, w) }) +
		timeCall("tensor.MatMulATBAddInto", 7, tr, func() { tensor.MatMulATBAddInto(gw, x, dy) })
	return 3 * 2 * float64(rows*width*width) / t / 1e9
}

// peakProbe is a large square GEMM, the MFU denominator, in GFLOP/s.
func peakProbe(tr *tracer) float64 {
	const n = 512
	rng := rand.New(rand.NewSource(2))
	a, b, out := randMatrix(rng, n, n), randMatrix(rng, n, n), tensor.New(n, n)
	t := timeCall("tensor.MatMulInto 512^3", 5, tr, func() { tensor.MatMulInto(out, a, b) })
	return 2 * n * n * n / t / 1e9
}

// mlpFlops is the analytic FLOP count of one training step of an MLP over
// samples rows: 2 per multiply-add forward, twice that backward (input and
// weight gradients).
func mlpFlops(net *nn.Network, samples int) float64 {
	var f float64
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			f += 6 * float64(samples*d.W.Rows*d.W.Cols)
		}
	}
	return f
}

// isolatedProbe times every stage's Network forward+backward alone, on one
// replica's share of a micro-batch, and returns the compute seconds of one
// step: each stage's time x micro-batches x replicas, summed.
func isolatedProbe(p *core.Plan, master *nn.Network, tr *tracer) (float64, error) {
	rng := rand.New(rand.NewSource(3))
	m := p.GBS / p.MicroBatch
	width := inDim
	var total float64
	for i, st := range p.Stages {
		repl := len(st.Devices)
		if p.MicroBatch%repl != 0 {
			return 0, fmt.Errorf("stage %d: %d rows do not split over %d replicas", i, p.MicroBatch, repl)
		}
		net := master.SliceClone(st.Lo, st.Hi)
		x := randMatrix(rng, p.MicroBatch/repl, width)
		ws := nn.NewWorkspace()
		run := &nn.WSRun{}
		var outCols int
		t := timeCall(fmt.Sprintf("Network.ForwardWS+BackwardWS s%d", i), 9, tr, func() {
			y := net.ForwardWS(ws, x, run)
			outCols = y.Cols
			dy := ws.Get(y.Rows, y.Cols)
			for j := range dy.Data {
				dy.Data[j] = 1 / float64(len(dy.Data))
			}
			if dx := net.BackwardWS(ws, run, dy); dx != dy {
				ws.Put(dx)
			}
			ws.Put(dy)
		})
		total += t * float64(m*repl)
		width = outCols
	}
	return total, nil
}

// simProbe profiles the network by measurement and simulates the plan under
// that model: the predicted step seconds, the simulated stash peak (max over
// stages of PeakMem - StaticMem), and schedule.Run's median duration.
func simProbe(ctx context.Context, p *core.Plan, master *nn.Network, pol schedule.Policy, tr *tracer) (pred float64, stash int64, runS float64, err error) {
	s0 := tr.now()
	meas, err := train.ProfileNetworkMeasured(ctx, p.Model.Name+"-measured", master, inDim, p.MicroBatch, p.GBS, train.MeasureOptions{})
	tr.span("ProfileNetworkMeasured", "probe", s0)
	if err != nil {
		return 0, 0, 0, err
	}
	mp := *p
	mp.Model = meas
	var res *schedule.Result
	runS = timeCall("schedule.Run", 5, tr, func() {
		if err == nil {
			res, err = schedule.Run(&mp, schedule.Options{Policy: pol})
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, st := range res.PerStage {
		stash = max(stash, st.PeakMem-st.StaticMem)
	}
	return res.IterTime, stash, runS, nil
}
