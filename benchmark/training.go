package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/train"
	"dapple/internal/transport"
)

const (
	inDim      = 32 // input features of both training networks
	dataSets   = 8  // distinct step inputs a run cycles through
	checkSteps = 4  // leading steps checked against SequentialStep
	setupReps  = 9  // set-ups per run; setup_s is their median
	lr         = 0.01
)

// trainFixture is one training workload.
type trainFixture struct {
	name    string
	build   func() (*core.Plan, *nn.Network, error)
	policy  schedule.Policy
	session bool    // run through a coordinator and two TCP workers
	tol     float64 // loss tolerance against SequentialStep
}

// wideFixture is train.BenchmarkWorkload's layout — an 11-layer MLP carved
// 3:3:3:2, two replicas per stage on ConfigB(8), M=8 — widened to hidden
// width 128 with 32 rows per micro-batch, so that compute dominates and each
// stage's gradient spans several 16 KiB all-reduce buckets.
var wideFixture = trainFixture{
	name:   "train-wide",
	policy: schedule.DapplePA,
	tol:    1e-9,
	build: func() (*core.Plan, *nn.Network, error) {
		const rows, m = 32, 8
		master := nn.MLP([]int{inDim, 128, 128, 128, 128, 128, 8}, 42)
		mod, err := train.ProfileNetwork("wide-net", master, inDim, rows, rows*m)
		if err != nil {
			return nil, nil, err
		}
		var stages []core.Stage
		lo := 0
		for i, hi := range []int{3, 6, 9, 11} {
			stages = append(stages, core.Stage{Lo: lo, Hi: hi,
				Devices: []hardware.DeviceID{hardware.DeviceID(2 * i), hardware.DeviceID(2*i + 1)}})
			lo = hi
		}
		p := &core.Plan{Model: mod, Cluster: hardware.ConfigB(8), Stages: stages, GBS: rows * m, MicroBatch: rows}
		return p, master, p.Validate()
	},
}

// sessionFixture is the unchanged runtime fixture under GPipe, run as a
// distributed session.
var sessionFixture = trainFixture{
	name:    "session-tcp",
	policy:  schedule.GPipe,
	session: true,
	tol:     1e-6,
	build: func() (*core.Plan, *nn.Network, error) {
		p, master, _, err := train.BenchmarkWorkload(0)
		return p, master, err
	},
}

func sgd() nn.Optimizer { return nn.SGD{LR: lr} }

// makeBatches draws the run's step inputs from its seed.
func makeBatches(seed int64, p *core.Plan) [][]train.Batch {
	rng := rand.New(rand.NewSource(seed))
	proj := train.NewQuadrantProblem(rng, inDim)
	sets := make([][]train.Batch, dataSets)
	for i := range sets {
		sets[i] = train.QuadrantBatches(rng, proj, p.GBS/p.MicroBatch, p.MicroBatch)
	}
	return sets
}

// stepper runs training steps: an in-process executor or a TCP session.
type stepper interface {
	step(ctx context.Context, micros []train.Batch) (float64, error)
	close() error
}

type execStepper struct {
	ex   *train.Executor
	last *train.ExecResult
}

func (s *execStepper) step(ctx context.Context, micros []train.Batch) (float64, error) {
	res, err := s.ex.StepContext(ctx, micros)
	if err != nil {
		return 0, err
	}
	s.last = res
	return res.Loss, nil
}

func (s *execStepper) close() error { return nil }

func newExecStepper(p *core.Plan, master *nn.Network, pol schedule.Policy, traced bool) (*execStepper, error) {
	ex, err := train.NewExecutor(p, master, sgd, train.ExecOptions{Policy: pol, NoTrace: !traced})
	if err != nil {
		return nil, err
	}
	return &execStepper{ex: ex}, nil
}

// instance is one set-up of a training workload.
type instance struct {
	plan   *core.Plan
	master *nn.Network // initial weights; the stepper trains copies
	ref    *nn.Network // the sequential reference, trained alongside
	st     stepper
}

func (fx trainFixture) setup(ctx context.Context) (*instance, error) {
	p, master, err := fx.build()
	if err != nil {
		return nil, err
	}
	in := &instance{plan: p, master: master, ref: master.Clone()}
	if fx.session {
		in.st, err = startSession(ctx, p, master.Clone(), fx.policy)
	} else {
		in.st, err = newExecStepper(p, master.Clone(), fx.policy, false)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// runTraining runs a training workload: repeated set-up, the correctness
// check, then the measured closed loop (untraced) or the layer phases
// (traced).
func runTraining(ctx context.Context, cfg config, fx trainFixture, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var in *instance
	var data [][]train.Batch
	var loss0 float64
	timer := startTimer()
	for i := 0; i < setupReps; i++ {
		if in != nil {
			if err := in.st.close(); err != nil {
				return nil, err
			}
		}
		s0 := tr.now()
		err := timer.op(func() error {
			var err error
			if in, err = fx.setup(ctx); err != nil {
				return err
			}
			if data == nil {
				data = makeBatches(cfg.seed, in.plan)
			}
			// The first step builds the executor's lazily-initialised runtime.
			loss0, err = in.st.step(ctx, data[0])
			return err
		})
		if err != nil {
			if in != nil {
				in.st.close()
			}
			return nil, err
		}
		tr.span("setup", "setup", s0)
	}
	setups, _ := timer.stop()
	defer in.st.close()

	// Correctness, outside the timed window: the leading steps against
	// SequentialStep on a clone of the initial network.
	verify := func(k int, loss float64, err error) {
		out.attempted++
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("step %d failed: %v", k, err))
			return
		}
		want, serr := train.SequentialStep(in.ref, data[k], sgd())
		if serr != nil || math.IsNaN(loss) || math.Abs(loss-want) > fx.tol {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("step %d: loss %.17g, sequential %.17g (tolerance %g)", k, loss, want, fx.tol))
		}
	}
	verify(0, loss0, nil)
	for k := 1; k < checkSteps; k++ {
		loss, err := in.st.step(ctx, data[k])
		verify(k, loss, err)
	}

	spanName := "StepContext"
	if fx.session {
		spanName = "Coordinator.Step"
	}
	share := 1.0
	if cfg.trace {
		share = 0.4
	}
	loop := measureSteps(ctx, in.st, data, seconds(share*cfg.seconds), tr, spanName)
	out.attempted += loop.attempted
	out.failed += loop.failed
	out.notes = append(out.notes, loop.notes...)
	if len(loop.durs) == 0 {
		return out, nil
	}
	out.notes = append(out.notes, latencyNote(loop.durs, "steps", "samples", float64(in.plan.GBS)),
		fmt.Sprintf("%d set-ups, median %.4f s", len(setups), median(setups)))
	if !cfg.trace {
		setEndToEnd(out.metrics, loop.byInput(), loop.cpu, loop.allocs, setups)
		return out, nil
	}
	return out, traceTraining(ctx, cfg, fx, in, data, loop, out, tr)
}

// loopStats is one closed loop of training steps.
type loopStats struct {
	durs              []float64 // net step times
	cpu               float64
	allocs            uint64
	attempted, failed int
	notes             []string
	frames, wire      int64 // TCP frames and bytes sent, all transports
}

// byInput groups the loop's step times by the data set each step ran on.
func (ls loopStats) byInput() [][]float64 {
	by := make([][]float64, dataSets)
	for i, d := range ls.durs {
		k := (checkSteps + i) % dataSets
		by[k] = append(by[k], d)
	}
	return by
}

func measureSteps(ctx context.Context, st stepper, data [][]train.Batch, d time.Duration, tr *tracer, spanName string) (ls loopStats) {
	losses := make([]float64, 0, 1<<15)
	sess, _ := st.(*session)
	var f0, b0 int64
	if sess != nil {
		f0, b0 = sess.wireStats()
	}
	var err error
	ls.allocs, err = countAllocs(func() error {
		var err error
		ls.durs, ls.cpu, err = closedLoop(d, func(i int) error {
			s0 := tr.now()
			loss, err := st.step(ctx, data[(checkSteps+i)%len(data)])
			tr.span(spanName, "step", s0)
			losses = append(losses, loss)
			return err
		})
		return err
	})
	if sess != nil {
		f1, b1 := sess.wireStats()
		ls.frames, ls.wire = f1-f0, b1-b0
	}
	ls.attempted = len(losses)
	if err != nil {
		ls.failed++
		ls.notes = append(ls.notes, fmt.Sprintf("timed step %d failed: %v", len(losses)-1, err))
		losses = losses[:len(losses)-1]
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			ls.failed++
			ls.notes = append(ls.notes, fmt.Sprintf("timed step %d: loss %v", i, l))
		}
	}
	return ls
}

// traceTraining is the traced run's layer phases after the workload's own
// untraced loop: an untraced in-process executor of the same plan (when the
// workload is a session), a traced one, and the kernel, network and
// simulator probes.
func traceTraining(ctx context.Context, cfg config, fx trainFixture, in *instance, data [][]train.Batch,
	loop loopStats, out *outcome, tr *tracer) error {
	m := out.metrics
	steps := float64(len(loop.durs))
	stepP50 := median(loop.durs)
	inproc := loop
	if fx.session {
		ex, err := newExecStepper(in.plan, in.master.Clone(), fx.policy, false)
		if err != nil {
			return err
		}
		inproc = measureSteps(ctx, ex, data, seconds(0.2*cfg.seconds), tr, "StepContext")
		out.attempted += inproc.attempted
		out.failed += inproc.failed
		if len(inproc.durs) == 0 {
			return fmt.Errorf("in-process executor: %v", inproc.notes)
		}
		m["transport.frames_per_step"] = float64(loop.frames) / steps
		m["transport.wire_bytes_per_step"] = float64(loop.wire) / steps
		m["session.overhead_ms"] = 1e3 * (stepP50 - median(inproc.durs))
	}
	inprocP50 := median(inproc.durs)
	m["executor.allocs_per_step"] = float64(inproc.allocs) / float64(len(inproc.durs))

	// The traced executor: per-step sums of its own spans and counters.
	ex, err := newExecStepper(in.plan, in.master.Clone(), fx.policy, true)
	if err != nil {
		return err
	}
	var fwd, bwd, bubble, comm, wait []float64
	var peakStash int64
	share := 0.5
	if fx.session {
		share = 0.3
	}
	traced, _, err := closedLoop(seconds(share*cfg.seconds), func(i int) error {
		s0 := tr.now()
		loss, err := ex.step(ctx, data[(checkSteps+i)%len(data)])
		tr.span("StepContext", "step", s0)
		out.attempted++
		if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			err = fmt.Errorf("loss %v", loss)
		}
		if err != nil {
			out.failed++
			return err
		}
		res := ex.last
		if i < execStepsKept {
			tr.addExec(res.Trace, s0)
		}
		var f, b, busy float64
		for _, s := range res.Trace.Spans {
			dur := s.End - s.Start
			switch s.Kind {
			case "fwd":
				f += dur
			case "bwd":
				b += dur
			}
			busy += dur
		}
		fwd = append(fwd, f)
		bwd = append(bwd, b)
		bubble = append(bubble, 1-busy/(float64(len(res.Trace.Resources))*res.WallTime))
		comm = append(comm, sum(res.CommSeconds))
		wait = append(wait, sum(res.CommWaitSeconds))
		for _, sb := range res.MaxStashBytes {
			peakStash = max(peakStash, sb)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced executor: %w", err)
	}
	m["nn.fwd_ms"] = 1e3 * median(fwd)
	m["nn.bwd_ms"] = 1e3 * median(bwd)
	m["executor.bubble_frac"] = median(bubble)
	m["executor.comm_busy_ms"] = 1e3 * median(comm)
	m["executor.sync_wait_ms"] = 1e3 * median(wait)
	m["executor.peak_stash_bytes"] = float64(peakStash)
	m["executor.trace_overhead_frac"] = median(traced)/inprocP50 - 1

	// Probes of single layers, timed alone.
	rows := in.plan.MicroBatch / len(in.plan.Stages[0].Devices)
	width := in.master.Layers[2].(*nn.Dense).W.Rows
	m["tensor.gemm_gflops"] = gemmProbe(rows, width, tr)
	peak := peakProbe(tr)
	m["tensor.peak_gflops"] = peak
	m["executor.mfu"] = mlpFlops(in.master, in.plan.GBS) / stepP50 / (peak * 1e9)
	iso, err := isolatedProbe(in.plan, in.master, tr)
	if err != nil {
		return err
	}
	m["nn.isolated_fwdbwd_ms"] = 1e3 * iso
	pred, simStash, runS, err := simProbe(ctx, in.plan, in.master, fx.policy, tr)
	if err != nil {
		return err
	}
	m["sim.step_ratio"] = stepP50 / pred
	m["sim.stash_ratio"] = float64(peakStash) / float64(simStash)
	m["sim.run_ms"] = 1e3 * runS
	out.notes = append(out.notes, fmt.Sprintf("traced executor: %d steps, p50 %.3f ms (untraced in-process %.3f ms)",
		len(traced), 1e3*median(traced), 1e3*inprocP50))
	return nil
}

// session is a distributed training session inside this process: a
// coordinator and two workers, each on its own TCP transport over loopback.
type session struct {
	coord  *train.Coordinator
	trans  []*transport.TCP // worker 0, worker 1, coordinator
	cancel context.CancelFunc
	served chan error
}

// startSession places stage i on rank i%2, so every stage boundary crosses
// a socket while each stage's replica group stays inside one rank.
func startSession(ctx context.Context, p *core.Plan, master *nn.Network, pol schedule.Policy) (_ *session, err error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &session{cancel: cancel, served: make(chan error, 2)}
	nServing := 0
	defer func() {
		if err != nil {
			cancel()
			for _, t := range s.trans {
				t.Close()
			}
			for ; nServing > 0; nServing-- {
				<-s.served
			}
		}
	}()
	deviceRanks := make([]int, p.Cluster.NumDevices())
	for d := range deviceRanks {
		deviceRanks[d] = (d / 2) % 2
	}
	for r := 0; r < 2; r++ {
		t, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.SetRank(r)
		s.trans = append(s.trans, t)
	}
	ct := transport.NewTCP()
	ct.SetRank(2)
	s.trans = append(s.trans, ct)
	w0, w1 := s.trans[0], s.trans[1]
	if err := w1.Dial(ctx, 0, w0.Addr()); err != nil {
		return nil, err
	}
	if err := ct.Dial(ctx, 0, w0.Addr()); err != nil {
		return nil, err
	}
	if err := ct.Dial(ctx, 1, w1.Addr()); err != nil {
		return nil, err
	}
	if err := w0.WaitPeers(ctx, []int{1, 2}); err != nil {
		return nil, err
	}
	if err := w1.WaitPeers(ctx, []int{0, 2}); err != nil {
		return nil, err
	}
	for r, t := range []*transport.TCP{w0, w1} {
		w := train.NewWorker(t, r)
		nServing++
		go func() { s.served <- w.Serve(ctx) }()
	}
	s.coord, err = train.NewCoordinator(ctx, ct, p, master, train.OptSpec{Kind: "sgd", LR: lr},
		train.ExecOptions{Policy: pol}, deviceRanks, 2)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *session) step(ctx context.Context, micros []train.Batch) (float64, error) {
	return s.coord.Step(ctx, micros)
}

// wireStats sums frames and bytes sent over the session's transports.
func (s *session) wireStats() (frames, bytes int64) {
	for _, t := range s.trans {
		st := t.Stats()
		frames += st.FramesSent
		bytes += st.BytesSent
	}
	return frames, bytes
}

// close ends the session and waits for both workers to return.
func (s *session) close() error {
	err := s.coord.Close()
	if err != nil {
		s.cancel() // the workers may never see a clean teardown
	}
	for i := 0; i < 2; i++ {
		if werr := <-s.served; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	s.cancel()
	for _, t := range s.trans {
		t.Close()
	}
	return err
}
