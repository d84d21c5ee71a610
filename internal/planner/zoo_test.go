package planner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dapple/internal/comm"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// zooGoldenFile pins the planner's output on the model zoo.
const zooGoldenFile = "testdata/zoo_golden.txt"

// zooClusters are the clusters the golden file and BenchmarkPlanZoo plan on:
// the hierarchical ConfigA(2) and the flat ConfigB(16).
var zooClusters = []struct {
	label string
	c     hardware.Cluster
}{
	{"ConfigA(2)", hardware.ConfigA(2)},
	{"ConfigB(16)", hardware.ConfigB(16)},
}

// zooGolden plans every zoo model on every zoo cluster at Workers 1 and 2
// under the default options and renders one line per search: the exact bits
// of the simulated and analytic latencies, the explored count, the
// recommended policy, the recompute flag and the plan JSON.
func zooGolden(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, zc := range zooClusters {
		for _, m := range model.Zoo() {
			for _, w := range []int{1, 2} {
				r, err := Plan(m, zc.c, Options{Workers: w})
				if err != nil {
					t.Fatalf("%s on %s workers=%d: %v", m.Name, zc.label, w, err)
				}
				js, err := json.Marshal(r.Plan)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s %s workers=%d latency=%#016x analytic=%#016x explored=%d policy=%v recompute=%v plan=%s\n",
					m.Name, zc.label, w, math.Float64bits(r.Latency), math.Float64bits(r.Analytic),
					r.Explored, r.Policy, r.NeedsRecompute, js)
			}
		}
	}
	return buf.Bytes()
}

// TestPlannerZooGolden pins the planner's output bit for bit: every zoo
// search must reproduce the checked-in plans, latencies, explored counts,
// policies and recompute flags exactly. Performance work on the search and
// the cost model must leave the golden file untouched; a change meant to
// alter plans rewrites it with zooGolden's output and says why.
func TestPlannerZooGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the whole zoo twice per cluster")
	}
	want, err := os.ReadFile(zooGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := zooGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d differs:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}

// BenchmarkPlanZoo times one cold search per zoo model and cluster under the
// default options, the searches of the repository benchmark's plan-zoo
// workload.
func BenchmarkPlanZoo(b *testing.B) {
	for _, zc := range zooClusters {
		for _, m := range model.Zoo() {
			b.Run(m.Name+"/"+zc.label, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Plan(m, zc.c, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestScoringZeroAlloc is the allocation gate of the search's inner loop:
// on every plan of the golden file, the cost model (Plan.Latency,
// comm.CrossStageTime, comm.AllReduceTime), the planner's scoring of an
// already-recorded state (validation, latency, memory fit and signature
// lookup) and its placement enumeration must not allocate.
func TestScoringZeroAlloc(t *testing.T) {
	data, err := os.ReadFile(zooGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]hardware.Cluster{}
	for _, zc := range zooClusters {
		clusters[zc.label] = zc.c
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		_, js, _ := strings.Cut(line, " plan=")
		m, c := model.ByName(fields[0]), clusters[fields[1]]
		p, err := core.UnmarshalPlan([]byte(js), m, c)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		check := func(what string, f func()) {
			if n := testing.AllocsPerRun(20, f); n != 0 {
				t.Errorf("%s on %s: %s allocates %v times per call, want 0", m.Name, fields[1], what, n)
			}
		}
		check("Plan.Latency", func() { p.Latency() })
		check("comm.CrossStageTime", func() {
			for i := 0; i+1 < len(p.Stages); i++ {
				comm.CrossStageTime(c, p.Stages[i].Devices, p.Stages[i+1].Devices, p.BoundaryBytes(i))
			}
		})
		check("comm.AllReduceTime", func() {
			for i, st := range p.Stages {
				comm.AllReduceTime(c, st.Devices, p.StageParamBytes(i))
			}
		})
		s := &search{m: m, c: c, gbs: p.GBS, maxStages: len(p.Stages), memCheck: true,
			best: math.Inf(1), cands: map[string]candidate{}}
		s.precompute()
		s.evaluate(p.Stages) // records the state; scoring it again must not
		check("search.evaluate", func() { s.evaluate(p.Stages) })
		used := make(alloc, c.Servers)
		check("search.placements", func() {
			for r := 1; r < c.NumDevices(); r++ {
				s.placements(&s.levels[0].takes, used, r)
			}
		})
	}
}
