package train

import (
	"math"
	"math/rand"
	"testing"

	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
)

// makeMicros builds m deterministic micro-batches of rows x in features.
func makeMicros(m, rows, in, classes int, seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Batch, m)
	for i := range out {
		x := tensor.New(rows, in)
		x.Randomize(rng, 1)
		y := make([]int, rows)
		for j := range y {
			y[j] = rng.Intn(classes)
		}
		out[i] = Batch{X: x, Y: y}
	}
	return out
}

// TestPipelineMatchesSequential trains the classic pipeline layouts — GPipe
// and DAPPLE, with and without re-computation and stage replication — for
// several steps with a stateful optimizer: every replica's Adam state must
// track the single-device run, so losses and weights stay within 1e-9 of
// sequential training step after step, not only after the first.
func TestPipelineMatchesSequential(t *testing.T) {
	cases := []struct {
		name       string
		cuts, reps []int
		opts       ExecOptions
	}{
		{"dapple-2stage", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"dapple-3stage", []int{2, 4, 5}, []int{1, 1, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"gpipe-2stage", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.GPipe}},
		{"dapple-recompute", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.DapplePA, Recompute: true}},
		{"gpipe-recompute", []int{2, 5}, []int{1, 1}, ExecOptions{Policy: schedule.GPipe, Recompute: true}},
		{"dapple-replicated", []int{3, 5}, []int{2, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"dapple-hybrid", []int{3, 5}, []int{2, 3}, ExecOptions{Policy: schedule.DapplePA, Recompute: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := nn.MLP([]int{6, 12, 10, 3}, 2024) // 5 layers: D,R,D,R,D
			micros := makeMicros(6, 6, 6, 3, 11)
			p := mkPlan(t, master, 6, 6, 6, tc.cuts, tc.reps)
			ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.NewAdam(1e-2) }, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, seqOpt := master.Clone(), nn.NewAdam(1e-2)
			for step := 0; step < 3; step++ {
				want, err := SequentialStep(seq, micros, seqOpt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ex.Step(micros)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Loss-want) > 1e-9 {
					t.Fatalf("step %d loss: sequential %g vs executed %g", step, want, res.Loss)
				}
			}
			for si, s := range p.Stages {
				want := seq.Slice(s.Lo, s.Hi).Params()
				for r := 0; r < s.Replicas(); r++ {
					for i, pr := range ex.StageParams(si, r) {
						if d := tensor.MaxAbsDiff(pr.W, want[i].W); d > 1e-9 {
							t.Fatalf("stage %d replica %d param %d differs by %g", si, r, i, d)
						}
					}
				}
			}
		})
	}
}

func TestSequentialStepErrors(t *testing.T) {
	net := nn.MLP([]int{2, 2}, 1)
	if _, err := SequentialStep(net, nil, nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("expected error on empty micro-batches")
	}
	bad := []Batch{{X: tensor.New(2, 2), Y: []int{0}}}
	if _, err := SequentialStep(net, bad, nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("expected error on label/row mismatch")
	}
}
