package main

import (
	"bufio"
	"os"
	"path/filepath"

	"dapple/internal/sim"
	"dapple/internal/trace"
)

// tracer keeps a traced run's spans in memory: the benchmark's own spans
// around each call into a layer, on the "bench" resource, and copies of the
// executor's per-device spans of a few steps, on "exec.<resource>". All of it
// is recorded from the driving goroutine and written as one Chrome trace when
// the run ends. A nil tracer records nothing, so untraced runs pay only a nil
// check.
type tracer struct {
	rec   *trace.Recorder
	bench int
	n     int
}

// execStepsKept bounds how many steps' executor spans the trace keeps.
const execStepsKept = 8

func newTracer() *tracer {
	rec := trace.NewRecorder()
	return &tracer{rec: rec, bench: rec.Resource("bench")}
}

// now is the trace clock in seconds, 0 on a nil tracer.
func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return t.rec.Now()
}

// span closes a benchmark span opened at start.
func (t *tracer) span(name, kind string, start float64) {
	if t == nil {
		return
	}
	t.rec.Record(t.bench, name, kind, start, t.rec.Now())
	t.n++
}

// addExec copies one step's executor spans, whose clock starts at the step,
// onto the trace clock at offset off.
func (t *tracer) addExec(r *sim.Result, off float64) {
	if t == nil || r == nil {
		return
	}
	for _, s := range r.Spans {
		if s.Resource == sim.NoResource {
			continue
		}
		res := t.rec.Resource("exec." + r.Resources[s.Resource])
		t.rec.Record(res, s.Name, s.Kind, off+s.Start, off+s.End)
		t.n++
	}
}

func (t *tracer) spans() int { return t.n }

// write stores the trace as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteChrome(w, t.rec.Result()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
