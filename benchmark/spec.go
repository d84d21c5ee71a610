package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The benchmark's contract lives here, in one table: BENCHMARK.json at the
// repository root is rendered from it (-write-spec), the smoke test pins the
// committed file to it, and -describe prints the parts BENCHMARK.json has no
// field for (the layers each workload loads, and which end-to-end metric each
// per-layer metric should move).

// specFile is the contract file, relative to the repository root.
const specFile = "BENCHMARK.json"

// runSeconds is how long one run measures.
const runSeconds = 20

// workloadSpec describes one workload.
type workloadSpec struct {
	Name   string
	Why    string // one line, at most 200 characters
	Layers string // the layers the workload loads, and the ones it bypasses
}

// e2eSpec is an end-to-end metric: every workload reports it.
type e2eSpec struct {
	Name, Unit, Better string
	Bound              float64 // share of the parent's median it may worsen by
	Doc                string
}

// layerSpec is a per-layer metric, reported by the traced run. A workload
// that does not load the metric's layer reports 0.
type layerSpec struct {
	Name, Unit, Better string
	Doc                string // what is measured
	Moves              string // the end-to-end metric and workload it should move
}

var workloads = []workloadSpec{
	{
		Name: "train-wide",
		Why: "Compute-bound 4x2 DAPPLE-PA pipeline of a width-128 MLP; loads tensor, nn, the executor schedule and " +
			"the in-process bucketed all-reduce, not transport or planner",
		Layers: "tensor, nn, executor (DAPPLE-PA early backward, bucketed in-process all-reduce: each stage's gradient " +
			"spans several 16 KiB buckets). transport and planner do no work. The same plan under GPipe stashes " +
			"~2.7x the bytes, so peak stash shows the paper's memory effect.",
	},
	{
		Name: "session-tcp",
		Why: "The width-48 fixture under GPipe through a coordinator and 2 workers on TCP loopback; half the step " +
			"is framing and session protocol, so transport and the session layer dominate",
		Layers: "transport (TCP framing, every stage boundary crosses a socket), the session protocol (train.Coordinator/" +
			"Worker), executor (GPipe flood schedule, the policy train-wide does not use). Replica all-reduces stay " +
			"inside one rank. planner does no work.",
	},
	{
		Name: "plan-zoo",
		Why: "Plans the 6 zoo models on ConfigA(2) and ConfigB(16) with a cold cache: planner DP, pruning and " +
			"simulator re-ranking only; speedup uses SimulatePlan, as Latency assumes PA",
		Layers: "planner (dynamic program, branch-and-bound pruning, simulator re-ranking of finalists), sim, the " +
			"engine cache (cleared before each search). No tensor, nn, executor or transport work. The planner " +
			"re-ranks finalists under DapplePA, but Result.Policy may recommend PB, so Result.Latency disagrees with " +
			"SimulatePlan on PB plans (GNMT-16 on ConfigA: 1.010 s vs 0.953 s); planner.speedup_gmean therefore " +
			"divides by SimulatePlan, and planner.latency_over_sim records the gap.",
	},
}

// Every time is wall-clock time net of steal time (see opTimer). A typical
// time is bounded, not a high percentile: on the shared virtual machine this
// benchmark was tuned on, the tail still moves with the host's load. Net of
// steal, the CPUs' speed still changed by up to 15% between runs minutes
// apart, moving CPU time and net time per operation together, so ten runs of
// one build spread by up to 12%: hence bounds of 25%.
var endToEnd = []e2eSpec{
	{"op_ms", "ms", "lower", 0.25,
		"typical operation time, a training step (train-wide, session-tcp) or one Engine.Plan search (plan-zoo): the geometric mean over the distinct inputs of each input's median"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "process CPU time, user and system, per operation"},
	{"allocs_per_op", "count", "lower", 0.1, "heap objects the whole process allocates per operation (runtime.MemStats)"},
	{"setup_s", "s", "lower", 0.25,
		"median of several set-ups: build network, plan and executor or session and run the first step; or build the engines and zoo"},
}

// On session-tcp the nn.* and executor.* metrics come from an in-process
// executor of the same plan and policy: a session reports no per-step
// ExecResult.
var perLayer = []layerSpec{
	{"tensor.gemm_gflops", "GFLOP/s", "higher",
		"MatMulInto, MatMulABTInto and MatMulATBAddInto at the workload's per-replica activation and weight shapes",
		"cpu_ms_per_op and op_ms on train-wide; no move on session-tcp or plan-zoo"},
	{"tensor.peak_gflops", "GFLOP/s", "higher", "a 512x512x512 MatMulInto", "nothing: it is the MFU denominator"},
	{"nn.fwd_ms", "ms", "lower", "per step, the sum over devices of the executor's F spans", "op_ms on train-wide"},
	{"nn.bwd_ms", "ms", "lower", "per step, the sum over devices of the executor's B spans", "op_ms on train-wide"},
	{"nn.isolated_fwdbwd_ms", "ms", "lower",
		"every stage replica's Network forward+backward over one step, each timed alone; the gap to nn.fwd_ms + nn.bwd_ms is core contention",
		"op_ms on train-wide"},
	{"executor.bubble_frac", "frac", "lower", "1 - (F+B+AR busy) / (devices x step wall)", "op_ms on both training workloads"},
	{"executor.sync_wait_ms", "ms", "lower", "per step, the sum over stages of CommWaitSeconds",
		"op_ms on train-wide; no move on session-tcp, whose replica groups stay inside one rank"},
	{"executor.comm_busy_ms", "ms", "lower", "per step, the sum over stages of CommSeconds",
		"op_ms on train-wide; no move on session-tcp"},
	{"executor.allocs_per_step", "count", "lower", "heap objects per untraced in-process step", "allocs_per_op on the training workloads"},
	{"executor.mfu", "frac", "higher", "analytic MLP FLOPs per step / untraced step median / tensor.peak_gflops",
		"nothing by itself: it rises as op_ms falls on the training workloads"},
	{"executor.peak_stash_bytes", "B", "lower", "the maximum over stages of ExecResult.MaxStashBytes",
		"nothing end-to-end: it is the paper's memory claim (DAPPLE-PA on train-wide, GPipe on session-tcp)"},
	{"executor.trace_overhead_frac", "frac", "lower", "traced / untraced in-process executor step median - 1",
		"nothing: it bounds what tracing costs"},
	{"sim.step_ratio", "ratio", "lower",
		"untraced step median / schedule.Run iteration time of the plan under a ProfileNetworkMeasured model",
		"nothing by itself: it follows op_ms on the training workloads"},
	{"sim.stash_ratio", "ratio", "lower",
		"executor.peak_stash_bytes / simulated max over stages of (PeakMem - StaticMem), same measured model",
		"nothing: it checks the simulator's memory model"},
	{"sim.run_ms", "ms", "lower", "median Engine.SimulatePlan of each chosen plan; schedule.Run of the training plan",
		"cpu_ms_per_op and op_ms on plan-zoo, since re-ranking simulates every finalist"},
	{"transport.frames_per_step", "count", "lower", "frames sent on the three TCP transports per session step",
		"op_ms on session-tcp; no move on train-wide, which runs in-process"},
	{"transport.wire_bytes_per_step", "B", "lower", "bytes sent on the three TCP transports per session step",
		"op_ms on session-tcp"},
	{"session.overhead_ms", "ms", "lower", "session step median - in-process executor step median, same plan and policy",
		"op_ms on session-tcp only"},
	{"planner.explored", "count", "lower", "Result.Explored summed over a sweep, averaged over sweeps", "cpu_ms_per_op and op_ms on plan-zoo"},
	{"planner.explored_per_s", "1/s", "higher", "explored plans per second of Engine.Plan", "cpu_ms_per_op and op_ms on plan-zoo"},
	{"planner.latency_over_sim", "ratio", "lower",
		"geometric mean over the chosen plans of Result.Latency / SimulatePlan iteration time; 1 when both agree",
		"nothing: it must not move unless the planner's ranking changes"},
	{"planner.speedup_gmean", "x", "higher",
		"geometric mean over the chosen plans of single-device time / SimulatePlan iteration time",
		"nothing: plan quality must not move when the planner gets faster"},
	{"engine.cache_misses", "count", "lower", "plan-cache misses per sweep",
		"nothing: it must equal the searches of a sweep (12), which proves the cache was cold"},
}

// Why the published metrics leave out overlap efficiency.
const overlapNote = "ExecResult.OverlapEfficiency and Coordinator.OverlapEfficiency are not published: " +
	"1 - wait/comm counts replica skew and goroutine scheduling at the sync point as exposed communication, " +
	"so it reads 0 at every bucket size and GOMAXPROCS. executor.comm_busy_ms and executor.sync_wait_ms " +
	"record the raw sums instead."

// benchmarkJSON is the contract file's shape, in its key order.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specE2E      `json:"end_to_end"`
	PerLayer   []specPerLayer `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// renderSpec returns BENCHMARK.json's content.
func renderSpec() ([]byte, error) {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, specE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, specPerLayer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// describe prints the whole specification, including what BENCHMARK.json
// cannot hold.
func describe(w io.Writer) {
	fmt.Fprintf(w, "Each run measures %d s in a closed loop driven by one goroutine, GOMAXPROCS = nproc.\n\n", runSeconds)
	fmt.Fprintln(w, "Workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s: %s\n    layers: %s\n", wl.Name, wl.Why, wl.Layers)
	}
	fmt.Fprintln(w, "\nEnd-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-6s %s is better, bound %.0f%%: %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "\nPer-layer metrics (--trace 1; 0 where the workload does not load the layer):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-8s %s is better: %s\n  %30s moves %s\n", m.Name, m.Unit, m.Better, m.Doc, "", m.Moves)
	}
	fmt.Fprintf(w, "\n%s\n", overlapNote)
}
