// Command dapple-bench regenerates the paper's evaluation tables and figures
// from the reproduction's workload generators, planner and schedule
// simulator. The full sweep takes ~30 s; every generator threads the
// command's context, so -timeout bounds it and ctrl-C stops it promptly.
//
// With -exec it instead benchmarks the REAL training runtime outside `go
// test`: the same replicated 4-stage fixture as BenchmarkExecutePlan (11
// layers carved 3:3:3:2, 2 replicas per stage, 8 worker goroutines, M=8),
// reporting per-iteration wall time, allocations and allocated bytes for
// both schedule policies — the portable form of the runtime benchmark for
// re-baselining on multi-core hosts.
//
// With -kernels it times the tensor kernels themselves (the blocked
// pool-parallel GEMM core on every kind, plus a worker-count sweep) — the
// portable form of the BenchmarkGEMM family for
// re-baselining BENCH_kernels.json on multi-core hosts.
//
// Usage:
//
//	dapple-bench -exp all          # every table and figure (§VI)
//	dapple-bench -exp table5       # one experiment
//	dapple-bench -list             # available experiment ids
//	dapple-bench -exp fig12 -quick # trimmed sweeps
//	dapple-bench -exp all -timeout 20s
//	dapple-bench -exec -exec-iters 100
//	dapple-bench -kernels -kernel-dim 512
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"dapple/internal/cliutil"
	"dapple/internal/experiments"
	"dapple/internal/hostinfo"
	"dapple/internal/schedule"
	"dapple/internal/stats"
	"dapple/internal/tensor"
	"dapple/internal/train"
	"dapple/internal/transport"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (tableN, figN) or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps for a fast pass")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
	list := flag.Bool("list", false, "list experiment ids")
	execMode := flag.Bool("exec", false, "benchmark the real training runtime instead of the simulator sweeps")
	execIters := flag.Int("exec-iters", 50, "timed iterations per policy in -exec mode (after 3 warm-up iterations)")
	execTransport := flag.String("exec-transport", "inproc", "-exec data plane: 'inproc' (single-process executor) or 'tcp' (2-worker coordinator session over loopback sockets)")
	kernelMode := flag.Bool("kernels", false, "benchmark the tensor GEMM kernels (blocked core on every kind, worker sweep)")
	kernelDim := flag.Int("kernel-dim", 512, "square matrix dimension for -kernels timings")
	kernelReps := flag.Int("kernel-reps", 5, "timed repetitions per -kernels measurement (median reported)")
	planFlags := cliutil.RegisterPlanFlags()
	profFlags := cliutil.RegisterProfileFlags()
	seed := cliutil.RegisterSeedFlag()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, g := range experiments.All() {
			fmt.Printf("%-8s %s\n", g.ID, g.Name)
		}
		return
	}

	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	if *kernelMode {
		runKernelBench(*kernelDim, *kernelReps)
		return
	}

	if *execMode {
		if *execIters < 1 {
			fmt.Fprintf(os.Stderr, "-exec-iters must be >= 1 (got %d)\n", *execIters)
			os.Exit(1)
		}
		switch *execTransport {
		case "inproc":
			runExecBench(ctx, *execIters, *seed)
		case "tcp":
			runExecBenchTCP(ctx, *execIters, *seed)
		default:
			fmt.Fprintf(os.Stderr, "unknown -exec-transport %q (want inproc or tcp)\n", *execTransport)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Workers: planFlags.Workers, NoPrune: planFlags.NoPrune}
	run := func(g experiments.Generator) {
		start := time.Now()
		rep := g.Run(ctx, opts)
		fmt.Println(rep)
		fmt.Printf("(%s generated in %.1fs)\n\n", g.ID, time.Since(start).Seconds())
		// A truncated report is a failure for scripts regenerating the
		// paper's tables: exit non-zero rather than shipping partial data.
		// (A deadline firing just after a complete report is not a failure.)
		if rep.Truncated() {
			fmt.Fprintf(os.Stderr, "stopped: %v\n", ctx.Err())
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, g := range experiments.All() {
			run(g)
		}
		return
	}
	g := experiments.ByID(*exp)
	if g == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	}
	run(*g)
}

// runExecBench times the real runtime outside `go test`: per policy, 3
// warm-up iterations then iters timed ones, reporting medians-free simple
// per-iteration means of wall time, heap allocations and allocated bytes.
// The loop threads ctx, so -timeout and ctrl-C stop it mid-step like every
// other mode of the three commands.
func runExecBench(ctx context.Context, iters int, seed int64) {
	fmt.Printf("exec benchmark: %d iterations/policy\nhost: %s\n", iters, hostinfo.Summary())
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "stopped: %v\n", err)
		os.Exit(1)
	}
	for _, tc := range []struct {
		name string
		pol  schedule.Policy
	}{
		{"GPipe", schedule.GPipe},
		{"DAPPLE", schedule.DapplePA},
	} {
		ex, micros, err := train.BenchmarkFixture(tc.pol, seed)
		if err != nil {
			fail(err)
		}
		for i := 0; i < 3; i++ { // reach the allocation steady state
			if _, err := ex.StepContext(ctx, micros); err != nil {
				fail(err)
			}
		}
		var m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := ex.StepContext(ctx, micros); err != nil {
				fail(err)
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m2)
		perIter := wall / time.Duration(iters)
		fmt.Printf("  %-7s %s/iter  %6d B/iter  %4d allocs/iter  (%s total)\n",
			tc.name,
			stats.Seconds(perIter.Seconds()),
			(m2.TotalAlloc-m1.TotalAlloc)/uint64(iters),
			(m2.Mallocs-m1.Mallocs)/uint64(iters),
			stats.Seconds(wall.Seconds()))
	}
}

// runExecBenchTCP times the same workload as runExecBench through the full
// distributed session protocol: two workers plus a coordinator, each on its
// own TCP transport over 127.0.0.1, with the fixture's four stages placed
// alternately (stage i on rank i%2) so every stage boundary crosses a socket.
// The processes are goroutines sharing one heap, so B/iter and allocs/iter
// cover all three roles; "wire" is bytes sent across all transports, from
// their frame counters.
func runExecBenchTCP(ctx context.Context, iters int, seed int64) {
	fmt.Printf("exec benchmark (tcp loopback, 2 workers + coordinator): %d iterations/policy\nhost: %s\n",
		iters, hostinfo.Summary())
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "stopped: %v\n", err)
		os.Exit(1)
	}
	for _, tc := range []struct {
		name string
		pol  schedule.Policy
	}{
		{"GPipe", schedule.GPipe},
		{"DAPPLE", schedule.DapplePA},
	} {
		p, master, micros, err := train.BenchmarkWorkload(seed)
		if err != nil {
			fail(err)
		}
		// Stage i's device pair {2i, 2i+1} maps to rank i%2: every
		// activation/gradient boundary is cross-rank, replica all-reduces
		// stay rank-local.
		deviceRanks := make([]int, p.Cluster.NumDevices())
		for d := range deviceRanks {
			deviceRanks[d] = (d / 2) % 2
		}

		w0t, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		w1t, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		w0t.SetRank(0)
		w1t.SetRank(1)
		ct := transport.NewTCP()
		ct.SetRank(2)
		if err := w1t.Dial(ctx, 0, w0t.Addr()); err != nil {
			fail(err)
		}
		if err := ct.Dial(ctx, 0, w0t.Addr()); err != nil {
			fail(err)
		}
		if err := ct.Dial(ctx, 1, w1t.Addr()); err != nil {
			fail(err)
		}
		if err := w0t.WaitPeers(ctx, []int{1, 2}); err != nil {
			fail(err)
		}
		if err := w1t.WaitPeers(ctx, []int{0, 2}); err != nil {
			fail(err)
		}

		workers := []*train.Worker{train.NewWorker(w0t, 0), train.NewWorker(w1t, 1)}
		served := make(chan error, len(workers))
		for _, w := range workers {
			go func(w *train.Worker) { served <- w.Serve(ctx) }(w)
		}
		coord, err := train.NewCoordinator(ctx, ct, p, master,
			train.OptSpec{Kind: "sgd", LR: 0.01},
			train.ExecOptions{Policy: tc.pol}, deviceRanks, len(workers))
		if err != nil {
			fail(err)
		}

		for i := 0; i < 3; i++ { // reach the allocation steady state
			if _, err := coord.Step(ctx, micros); err != nil {
				fail(err)
			}
		}
		wire := func() int64 {
			return w0t.Stats().BytesSent + w1t.Stats().BytesSent + ct.Stats().BytesSent
		}
		var m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		wire1 := wire()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := coord.Step(ctx, micros); err != nil {
				fail(err)
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m2)
		wire2 := wire()
		perIter := wall / time.Duration(iters)
		fmt.Printf("  %-7s %s/iter  %6d B/iter  %4d allocs/iter  %s wire/iter  (%s total)\n",
			tc.name,
			stats.Seconds(perIter.Seconds()),
			(m2.TotalAlloc-m1.TotalAlloc)/uint64(iters),
			(m2.Mallocs-m1.Mallocs)/uint64(iters),
			stats.Bytes((wire2-wire1)/int64(iters)),
			stats.Seconds(wall.Seconds()))

		if err := coord.Close(); err != nil {
			fail(err)
		}
		for range workers {
			if err := <-served; err != nil {
				fail(err)
			}
		}
	}
}

// medianOf times fn reps times (after one untimed warm-up that also primes
// the kernel pools) and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	fn()
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// runKernelBench times the tensor GEMM kernels outside `go test`: the blocked
// core on all three kinds and a worker-count sweep — the portable source of
// BENCH_kernels.json numbers. Results are
// bit-identical across worker counts, so the sweep measures time only.
func runKernelBench(dim, reps int) {
	fmt.Printf("kernel benchmark: %d reps/measurement (medians), %dx%d float64 operands\nhost: %s\n",
		reps, dim, dim, hostinfo.Summary())
	rng := rand.New(rand.NewSource(1))
	a := tensor.New(dim, dim)
	b := tensor.New(dim, dim)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	out := tensor.New(dim, dim)
	flops := 2 * float64(dim) * float64(dim) * float64(dim)
	report := func(name string, d time.Duration) {
		fmt.Printf("  %-24s %12s  %7.2f GFLOP/s\n", name, d, flops/d.Seconds()/1e9)
	}
	report("blocked NN", medianOf(reps, func() { tensor.MatMulInto(out, a, b) }))
	report("blocked TN (a^T@b)", medianOf(reps, func() { tensor.MatMulATBAddInto(out, a, b) }))
	report("blocked NT (a@b^T)", medianOf(reps, func() { tensor.MatMulABTInto(out, a, b) }))
	prev := tensor.Workers()
	for _, w := range []int{1, 2, 4, 8} {
		tensor.SetWorkers(w)
		report(fmt.Sprintf("blocked NN, %d workers", w), medianOf(reps, func() { tensor.MatMulInto(out, a, b) }))
	}
	tensor.SetWorkers(prev)
}
