package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecFile pins BENCHMARK.json to the spec table and checks the
// contract's limits on names, units, bounds and reasons.
func TestSpecFile(t *testing.T) {
	want, err := renderSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh --write-spec`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "" && better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why has %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted, and
// only those, on a correct run.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.3, trace: traced,
				zooModels: []string{"ResNet-50", "VGG-19"}}
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), cfg, traceOut, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			var names []string
			if traced {
				for _, m := range perLayer {
					names = append(names, m.Name)
				}
				if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no Chrome trace written (%v)", w.Name, err)
				}
			} else {
				for _, m := range endToEnd {
					names = append(names, m.Name)
					if v := res.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v)
					}
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", w.Name, traced, len(res.Metrics), len(names))
			}
			for _, n := range names {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, n)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0.1"},
		{"--workload", "train-wide", "--trace", "2"},
		{"--compare", "only-one-file"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// TestCompare checks the verdicts of the compare mode on synthetic runs.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	b, err := renderSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec, b, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, op func(i int) float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			ms := map[string]metricValue{}
			for _, m := range endToEnd {
				ms[m.Name] = metricValue{100 + float64(i%3), m.Unit}
			}
			ms["op_ms"] = metricValue{op(i), "ms"}
			if err := appendRecord(path, record{Workload: "train-wide", Result: result{Correct: true, Attempted: 1, Metrics: ms}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("old.jsonl", func(i int) float64 { return 30 + float64(i%3) })
	for _, tc := range []struct {
		name string
		op   func(i int) float64
		want string
	}{
		{"same", func(i int) float64 { return 30 + float64((i+1)%3) }, "same"},
		{"slower", func(i int) float64 { return 40 + float64(i%3) }, "regression"},
		{"faster", func(i int) float64 { return 24 + float64(i%3) }, "gain"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, write(tc.name+".jsonl", tc.op))
		if err != nil {
			t.Fatal(err)
		}
		row := regexp.MustCompile(`op_ms .* (\w+)\n`).FindStringSubmatch(out.String())
		if row == nil || row[1] != tc.want || regressed != (tc.want == "regression") {
			t.Errorf("%s: want %s, got\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
