package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"dapple"
)

// zooCase is one search of a plan-zoo sweep.
type zooCase struct {
	eng   *dapple.Engine
	model *dapple.Model
}

func (c zooCase) String() string { return c.model.Name + " on " + c.eng.Cluster().Name }

// zooSetup builds the two engines and the zoo: one search per model and
// cluster.
func zooSetup(only []string) ([]zooCase, []*dapple.Engine, error) {
	var cases []zooCase
	var engines []*dapple.Engine
	for _, c := range []dapple.Cluster{dapple.ConfigA(2), dapple.ConfigB(16)} {
		eng, err := dapple.NewEngine(dapple.WithCluster(c), dapple.WithStrategy("dapple"))
		if err != nil {
			return nil, nil, err
		}
		engines = append(engines, eng)
		for _, m := range dapple.Zoo() {
			if len(only) == 0 || contains(only, m.Name) {
				cases = append(cases, zooCase{eng, m})
			}
		}
	}
	return cases, engines, nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// zooSetupReps is plan-zoo's set-up count: a set-up takes well under a
// millisecond, so its median needs many.
const zooSetupReps = 51

// zooSearch is one search's outcome.
type zooSearch struct {
	pr  *dapple.PlanResult
	err error
}

// runPlanZoo plans every case per sweep, in an order drawn from the seed,
// clearing the case's engine cache before each search. Sweeps repeat until
// the run time has passed, at least twice, and always complete, so every
// run times the same mix of searches.
func runPlanZoo(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var cases []zooCase
	var engines []*dapple.Engine
	timer := startTimer()
	for i := 0; i < zooSetupReps; i++ {
		s0 := tr.now()
		if err := timer.op(func() error {
			var err error
			cases, engines, err = zooSetup(cfg.zooModels)
			return err
		}); err != nil {
			return nil, err
		}
		tr.span("setup", "setup", s0)
	}
	setups, _ := timer.stop()
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(cases))

	var sweeps [][]zooSearch
	var durs []float64
	var cpu float64
	d := seconds(cfg.seconds)
	allocs, _ := countAllocs(func() error {
		timer := startTimer()
		for len(sweeps) < 2 || time.Since(timer.t0) < d {
			sweep := make([]zooSearch, len(cases))
			for _, i := range order {
				c := cases[i]
				c.eng.ClearCache()
				s0 := tr.now()
				timer.op(func() error {
					pr, err := c.eng.Plan(ctx, c.model)
					sweep[i] = zooSearch{pr, err}
					return nil
				})
				tr.span("Engine.Plan "+c.String(), "plan", s0)
			}
			sweeps = append(sweeps, sweep)
		}
		durs, cpu = timer.stop()
		return nil
	})
	caseDurs := make([][]float64, len(cases))
	for k, dur := range durs {
		i := order[k%len(order)]
		caseDurs[i] = append(caseDurs[i], dur)
	}

	// Correctness, outside the timed window: every search succeeds with a
	// valid plan, identical byte for byte across sweeps, and every search
	// missed the cache.
	first := make([][]byte, len(cases))
	explored := 0
	for s, sweep := range sweeps {
		for i, z := range sweep {
			out.attempted++
			b, err := planBytes(z)
			if err != nil {
				out.failed++
				out.notes = append(out.notes, fmt.Sprintf("sweep %d, %v: %v", s, cases[i], err))
				continue
			}
			explored += z.pr.Explored
			if s == 0 {
				first[i] = b
			} else if !bytes.Equal(b, first[i]) {
				out.failed++
				out.notes = append(out.notes, fmt.Sprintf("sweep %d, %v: plan differs from sweep 0", s, cases[i]))
			}
		}
	}
	var misses int
	for _, e := range engines {
		misses += int(e.CacheStats().Misses)
	}
	if searches := len(sweeps) * len(cases); misses != searches {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("%d cache misses for %d searches", misses, searches))
	}
	out.notes = append(out.notes, latencyNote(durs, "searches", "searches", 1),
		fmt.Sprintf("%d sweeps of %d searches, %.2f s per sweep; %d set-ups, median %.6f s",
			len(sweeps), len(cases), sum(durs)/float64(len(sweeps)), len(setups), median(setups)))
	if !cfg.trace {
		setEndToEnd(out.metrics, caseDurs, cpu, allocs, setups)
		return out, nil
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("searches failed: %v", out.notes)
	}

	// What the chosen plans achieve, by the simulator: speedup over one
	// device, and how far the planner's own latency is from it.
	var speedups, latOverSim []float64
	timer = startTimer()
	for i, z := range sweeps[0] {
		c := cases[i]
		s0 := tr.now()
		var sr *dapple.ScheduleResult
		err := timer.op(func() error {
			var err error
			sr, err = c.eng.SimulatePlan(ctx, z.pr)
			return err
		})
		tr.span("SimulatePlan "+c.String(), "sim", s0)
		if err != nil {
			return nil, fmt.Errorf("simulate %v: %w", c, err)
		}
		p := z.pr.Plan
		speedups = append(speedups, p.Model.SingleDeviceIterTime(p.GBS)/sr.IterTime)
		latOverSim = append(latOverSim, z.pr.Latency/sr.IterTime)
	}
	simS, _ := timer.stop()
	m := out.metrics
	m["planner.explored"] = float64(explored) / float64(len(sweeps))
	m["planner.explored_per_s"] = float64(explored) / sum(durs)
	m["planner.latency_over_sim"] = gmean(latOverSim)
	m["planner.speedup_gmean"] = gmean(speedups)
	m["engine.cache_misses"] = float64(misses / len(sweeps))
	m["sim.run_ms"] = 1e3 * median(simS)
	return out, nil
}

// planBytes is a search's comparable outcome: the plan's JSON with the
// recommended policy and re-computation need.
func planBytes(z zooSearch) ([]byte, error) {
	if z.err != nil {
		return nil, z.err
	}
	if err := z.pr.Plan.Validate(); err != nil {
		return nil, err
	}
	b, err := json.Marshal(z.pr.Plan)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(b, " policy=%v recompute=%v", z.pr.Policy, z.pr.NeedsRecompute), nil
}
