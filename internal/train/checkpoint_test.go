package train

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dapple/internal/nn"
)

// ckptZoo lists one OptSpec per optimizer kind, covering the stateless and
// both stateful update rules.
var ckptZoo = []OptSpec{
	{Kind: "sgd", LR: 0.05},
	{Kind: "momentum", LR: 0.05, Beta: 0.9},
	{Kind: "adam", LR: 0.01},
}

// ckptNetSpec is a small heterogeneous skeleton for checkpoint tests.
var ckptNetSpec = []LayerSpec{
	{Kind: "dense", In: 7, Out: 11},
	{Kind: "relu"},
	{Kind: "dense", In: 11, Out: 5},
	{Kind: "tanh"},
	{Kind: "dense", In: 5, Out: 3},
}

// fillGrads writes a deterministic pseudo-random gradient into every param.
func fillGrads(params []nn.Param, rng *rand.Rand) {
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = rng.NormFloat64()
		}
	}
}

// optSteps drives net through n optimizer steps with seeded gradients.
func optSteps(t *testing.T, net *nn.Network, opt nn.Optimizer, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < n; s++ {
		fillGrads(net.Params(), rng)
		opt.Step(net.Params())
	}
}

// TestCheckpointRoundTripBitForBit is the save→restore property test across
// the optimizer zoo: a restored session must hold bit-identical weights AND
// continue the exact trajectory — one more identical step on the original
// and the restored copy lands on bit-identical weights, which is only
// possible when the optimizer state (velocity, moments, step counter) was
// captured exactly.
func TestCheckpointRoundTripBitForBit(t *testing.T) {
	for _, spec := range ckptZoo {
		t.Run(spec.Kind, func(t *testing.T) {
			factory, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			net, err := BuildNet(ckptNetSpec)
			if err != nil {
				t.Fatal(err)
			}
			opt := factory()
			optSteps(t, net, opt, 7, 5)

			ckpt := CaptureCheckpoint(5, net, opt)
			dir := t.TempDir()
			path, err := SaveCheckpoint(dir, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Step != 5 {
				t.Fatalf("loaded step %d, want 5", loaded.Step)
			}

			restoredNet, err := BuildNet(ckptNetSpec)
			if err != nil {
				t.Fatal(err)
			}
			restoredOpt := factory()
			if err := loaded.Restore(restoredNet, restoredOpt); err != nil {
				t.Fatal(err)
			}
			a, b := net.Params(), restoredNet.Params()
			for i := range a {
				for j := range a[i].W.Data {
					if a[i].W.Data[j] != b[i].W.Data[j] {
						t.Fatalf("param %d element %d differs after restore: %v vs %v",
							i, j, a[i].W.Data[j], b[i].W.Data[j])
					}
				}
			}

			// The decisive half: identical future steps.
			optSteps(t, net, opt, 99, 3)
			optSteps(t, restoredNet, restoredOpt, 99, 3)
			for i := range a {
				for j := range a[i].W.Data {
					if a[i].W.Data[j] != b[i].W.Data[j] {
						t.Fatalf("%s: trajectories diverged at param %d element %d: %v vs %v — optimizer state not round-tripped",
							spec.Kind, i, j, a[i].W.Data[j], b[i].W.Data[j])
					}
				}
			}
		})
	}
}

// TestCheckpointRejectsCorruption flips every byte position of an encoded
// checkpoint in turn and requires each corruption to be rejected; short
// writes (every truncation length) must be rejected too.
func TestCheckpointRejectsCorruption(t *testing.T) {
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 3, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01)
	optSteps(t, net, opt, 3, 2)
	buf := EncodeCheckpoint(CaptureCheckpoint(2, net, opt))
	if _, err := DecodeCheckpoint(buf); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for pos := 0; pos < len(buf); pos++ {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	for n := 0; n < len(buf); n++ {
		if _, err := DecodeCheckpoint(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// craftCheckpoint assembles a CRC-valid checkpoint from raw header counts,
// per-parameter shapes and nfloats zero payload values — the bytes a
// hostile or buggy writer could produce, bypassing EncodeCheckpoint.
func craftCheckpoint(nparams, nslots uint32, shapes [][2]uint32, nfloats int) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, ckptMagic)
	buf = le.AppendUint32(buf, ckptVersion)
	buf = le.AppendUint64(buf, 0)
	buf = le.AppendUint64(buf, 0)
	buf = le.AppendUint32(buf, nparams)
	buf = le.AppendUint32(buf, nslots)
	for _, sh := range shapes {
		buf = le.AppendUint32(buf, sh[0])
		buf = le.AppendUint32(buf, sh[1])
	}
	buf = append(buf, make([]byte, 8*nfloats)...)
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestCheckpointRejectsCraftedHeaders feeds DecodeCheckpoint CRC-valid files
// whose counts or shapes claim more data than they hold. Each must be an
// error — never an out-of-memory crash or a makeslice panic from
// allocating what the header claims before checking the body holds it.
func TestCheckpointRejectsCraftedHeaders(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nparams, nslots uint32
		shapes          [][2]uint32
		nfloats         int
	}{
		{"huge-param", 1, 0, [][2]uint32{{1 << 20, 1 << 20}}, 0},
		{"overflowing-shape", 1, 0, [][2]uint32{{1 << 31, 1<<31 + 1}}, 0},
		{"param-one-short", 1, 0, [][2]uint32{{2, 2}}, 3},
		{"huge-param-count", math.MaxUint32, 0, nil, 0},
		{"param-count-past-body", 3, 0, [][2]uint32{{1, 1}}, 1},
		{"huge-slot-count", 1, math.MaxUint32, [][2]uint32{{1, 1}}, 1},
		{"slots-without-params", 0, math.MaxUint32, nil, 0},
		{"slot-truncated", 1, 1, [][2]uint32{{1, 2}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := craftCheckpoint(tc.nparams, tc.nslots, tc.shapes, tc.nfloats)
			if _, err := DecodeCheckpoint(buf); err == nil {
				t.Fatal("crafted checkpoint accepted")
			}
		})
	}
	// The same writer with honest counts is accepted.
	if _, err := DecodeCheckpoint(craftCheckpoint(1, 1, [][2]uint32{{1, 2}}, 4)); err != nil {
		t.Fatalf("well-formed crafted checkpoint rejected: %v", err)
	}
}

// TestLatestCheckpointSkipsTorn writes three checkpoints, corrupts the
// newest on disk, and checks LatestCheckpoint falls back to the newest valid
// one — the crash-mid-write recovery path.
func TestLatestCheckpointSkipsTorn(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	var last string
	for step := 1; step <= 3; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if last, err = SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file short.
	buf, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Step != 2 {
		t.Fatalf("latest usable checkpoint step = %v, want 2", c)
	}
	if filepath.Base(path) != ckptName(2) {
		t.Fatalf("latest usable checkpoint path = %s", path)
	}

	// An empty or missing directory is a clean no-checkpoint start.
	if c, _, err := LatestCheckpoint(filepath.Join(dir, "missing")); err != nil || c != nil {
		t.Fatalf("missing dir: (%v, %v), want (nil, nil)", c, err)
	}
}

// TestPruneCheckpointsKeepLast writes five checkpoints and prunes to the two
// newest: exactly those two must survive, in-window files must never be
// touched, and a second prune must be a no-op.
func TestPruneCheckpointsKeepLast(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	for step := 1; step <= 5; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if _, err := SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("pruned %d files, want 3: %v", len(removed), removed)
	}
	names, err := ckptNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != ckptName(5) || names[1] != ckptName(4) {
		t.Fatalf("surviving checkpoints %v, want [%s %s]", names, ckptName(5), ckptName(4))
	}
	// Idempotent: nothing left to prune.
	if removed, err := PruneCheckpoints(dir, 2); err != nil || len(removed) != 0 {
		t.Fatalf("second prune removed %v (err %v), want nothing", removed, err)
	}
	// The newest must still load.
	c, _, err := LatestCheckpoint(dir)
	if err != nil || c == nil || c.Step != 5 {
		t.Fatalf("after prune LatestCheckpoint = (%v, %v), want step 5", c, err)
	}
}

// TestPruneCheckpointsKeepsNewestValid is the torn-write safety property:
// with the newest file corrupt and keep=1, pruning must preserve BOTH the
// (possibly recoverable) newest file and the newest valid checkpoint behind
// it, so LatestCheckpoint's fallback still lands on usable state after
// retention runs.
func TestPruneCheckpointsKeepsNewestValid(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	var last string
	for step := 1; step <= 4; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if last, err = SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file short, as a crash mid-write would.
	buf, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, buf[:len(buf)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PruneCheckpoints(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, err := ckptNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != ckptName(4) || names[1] != ckptName(3) {
		t.Fatalf("surviving checkpoints %v, want the torn newest plus the newest valid [%s %s]",
			names, ckptName(4), ckptName(3))
	}
	c, path, err := LatestCheckpoint(dir)
	if err != nil || c == nil || c.Step != 3 {
		t.Fatalf("fallback after prune = (%v, %v), want step 3", c, err)
	}
	if filepath.Base(path) != ckptName(3) {
		t.Fatalf("fallback path %s, want %s", path, ckptName(3))
	}

	// Degenerate inputs: keep < 1 is an error; a missing dir prunes nothing.
	if _, err := PruneCheckpoints(dir, 0); err == nil {
		t.Fatal("PruneCheckpoints(keep=0) did not error")
	}
	if removed, err := PruneCheckpoints(filepath.Join(dir, "missing"), 3); err != nil || removed != nil {
		t.Fatalf("missing dir prune = (%v, %v), want (nil, nil)", removed, err)
	}
}
