package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles reads two --record files, old then new, and prints one row
// per workload with one line per end-to-end metric. Runs pair up in record
// order. A metric is a regression when the new median is worse than the old
// by more than its bound; a gain when the new run wins at least 9 of 10
// pairs and the medians differ by more than the old runs' interquartile
// range; unresolved when a side's spread exceeds the bound and not every new
// run beats every old one. It reports whether anything regressed.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (bool, error) {
	var spec benchmarkJSON
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	olds, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, wl := range spec.Workloads {
		o, n := olds[wl.Name], news[wl.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-12s  %d/%d runs  missing\n", wl.Name, len(o), len(n))
			continue
		}
		var lines []string
		verdict := "same"
		for _, m := range spec.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				lines = append(lines, fmt.Sprintf("    %-20s missing", m.Name))
				continue
			}
			c := compareMetric(ov, nv, m.Better == "higher", m.Bound)
			lines = append(lines, fmt.Sprintf("    %-20s old %-12.6g new %-12.6g %+7.2f%%  spread %5.1f%%/%5.1f%%  wins %d/%d  bound %.0f%%  %s",
				m.Name, c.oldMed, c.newMed, 100*c.change, 100*c.oldSpread, 100*c.newSpread, c.wins, c.pairs, 100*m.Bound, c.verdict))
			verdict = worst(verdict, c.verdict)
		}
		if verdict == "regression" {
			regressed = true
		}
		fmt.Fprintf(w, "%-12s  %d/%d runs  %s\n", wl.Name, len(o), len(n), verdict)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	return regressed, nil
}

// worst orders verdicts for a workload's row.
func worst(a, b string) string {
	rank := map[string]int{"same": 0, "gain": 1, "unresolved": 2, "regression": 3}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

type metricComparison struct {
	oldMed, newMed       float64
	change               float64 // relative change of the median, signed as measured
	oldSpread, newSpread float64 // interquartile range over median
	wins, pairs          int     // runs pair up in record order
	verdict              string
}

func compareMetric(ov, nv []float64, higher bool, bound float64) metricComparison {
	c := metricComparison{oldMed: median(ov), newMed: median(nv), pairs: min(len(ov), len(nv))}
	c.change = c.newMed/c.oldMed - 1
	oq1, oq3 := quartiles(ov)
	nq1, nq3 := quartiles(nv)
	c.oldSpread = (oq3 - oq1) / c.oldMed
	c.newSpread = (nq3 - nq1) / c.newMed
	better := func(n, o float64) bool {
		if higher {
			return n > o
		}
		return n < o
	}
	for i := 0; i < c.pairs; i++ {
		if better(nv[i], ov[i]) {
			c.wins++
		}
	}
	worse := c.change
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, n := range nv {
		for _, o := range ov {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	switch {
	case 10*c.wins >= 9*c.pairs && better(c.newMed, c.oldMed) && math.Abs(c.newMed-c.oldMed) > oq3-oq1:
		c.verdict = "gain"
	case worse > bound:
		c.verdict = "regression"
	case max(c.oldSpread, c.newSpread) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "same"
	}
	return c
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// values lists a metric's values over runs, in record order.
func values(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if mv, ok := r.Result.Metrics[name]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

// readRecords reads the untraced records of a --record file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
