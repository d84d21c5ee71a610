// Command benchmark is the repository's benchmark: it runs one workload in a
// closed loop for a fixed time, checks every output, and prints every metric
// by name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload train-wide --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --describe
//	bash benchmark/run.sh --compare old.jsonl new.jsonl
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1 is
// a separate traced run that reports the per-layer metrics and writes the
// benchmark's spans, with the executor's own, as one Chrome trace under
// .bench_build/benchmark/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dapple/internal/hostinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// zooModels, when non-empty, restricts plan-zoo to these models (the
	// smoke test's short sweep).
	zooModels []string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end or per-layer, by mode
	notes             []string           // human-readable extras
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFacts stamps a recorded result with the machine and build it ran on.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

// record is one line of a --record file, the input of --compare.
type record struct {
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Host     hostFacts `json:"host"`
	Result   result    `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: train-wide, session-tcp or plan-zoo")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	runFor := fs.Float64("seconds", runSeconds, "measured time of the run")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	recordTo := fs.String("record", "", "append the result, stamped with host facts, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two --record files: --compare OLD NEW")
	writeSpec := fs.Bool("write-spec", false, "write "+specFile+" and exit")
	desc := fs.Bool("describe", false, "print the workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *desc:
		describe(stdout)
		return 0
	case *writeSpec:
		b, err := renderSpec()
		if err == nil {
			err = os.WriteFile(specFile, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare needs two record files")
			return 2
		}
		regressed, err := compareFiles(stdout, specFile, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if regressed {
			return 3
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *runFor <= 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *runFor, trace: *traced == 1}
	traceOut := filepath.Join(".bench_build", "benchmark", fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	host := stamp(cfg.seed)
	fmt.Fprintf(stdout, "host: %s, GOAMD64=%s, commit %s\n", hostinfo.Summary(), host.GOAMD64, host.Commit)
	fmt.Fprintf(stdout, "workload %s, seed %d, %g s, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	res, err := runWorkload(context.Background(), cfg, traceOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Workload: cfg.workload, Trace: cfg.trace, Seconds: cfg.seconds, Host: host, Result: *res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs cfg's workload and assembles its result line, after
// printing every metric by name with its unit.
func runWorkload(ctx context.Context, cfg config, traceOut string, stdout io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var out *outcome
	var err error
	switch cfg.workload {
	case "train-wide":
		out, err = runTraining(ctx, cfg, wideFixture, tr)
	case "session-tcp":
		out, err = runTraining(ctx, cfg, sessionFixture, tr)
	case "plan-zoo":
		out, err = runPlanZoo(ctx, cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want train-wide, session-tcp or plan-zoo)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, errors.New("the run attempted no operation")
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, failed_frac %g\n",
		out.attempted, out.failed, float64(out.failed)/float64(out.attempted))

	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	emit := func(name, unit string) error {
		v, ok := out.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", name, v, unit)
		res.Metrics[name] = metricValue{v, unit}
		return nil
	}
	if cfg.trace {
		for _, m := range perLayer {
			if _, ok := out.metrics[m.Name]; !ok {
				out.metrics[m.Name] = 0 // the workload does not load the layer
			}
			if err := emit(m.Name, m.Unit); err != nil {
				return nil, err
			}
		}
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", traceOut, tr.spans())
	} else {
		for _, m := range endToEnd {
			if err := emit(m.Name, m.Unit); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// stamp collects the host facts a recorded result carries.
func stamp(seed int64) hostFacts {
	h := hostFacts{
		CPUModel:   hostinfo.CPUModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "v1",
		Seed:       seed,
		Commit:     "unknown",
	}
	if runtime.GOARCH != "amd64" {
		h.GOAMD64 = "n/a"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+modified"
		}
	}
	return h
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// setEndToEnd fills the end-to-end metrics of a closed loop whose
// operations' times are grouped by input.
func setEndToEnd(m map[string]float64, byInput [][]float64, cpu float64, allocs uint64, setups []float64) {
	ops := 0
	var med []float64
	for _, ds := range byInput {
		if len(ds) > 0 { // a very short run may not reach every input
			ops += len(ds)
			med = append(med, median(ds))
		}
	}
	// The typical operation: the geometric mean over inputs of each input's
	// median. plan-zoo's searches differ by 100x, so a median over all its
	// timings sits between two searches and jumps between runs; the training
	// inputs cost the same, so there it is the median step.
	m["op_ms"] = 1e3 * gmean(med)
	m["cpu_ms_per_op"] = 1e3 * cpu / float64(ops)
	m["allocs_per_op"] = float64(allocs) / float64(ops)
	m["setup_s"] = median(setups)
}

// latencyNote prints the throughput and tail the end-to-end metrics leave
// out.
func latencyNote(durs []float64, ops, what string, perOp float64) string {
	return fmt.Sprintf("%d %s: %.4g %s/s, p50 %.3f ms, p90 %.3f ms",
		len(durs), ops, perOp*float64(len(durs))/sum(durs), what, 1e3*median(durs), 1e3*quantile(durs, 0.9))
}
