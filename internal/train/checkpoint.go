package train

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dapple/internal/nn"
	"dapple/internal/tensor"
)

// Checkpoint binary format (version 1, little-endian):
//
//	u32 magic  u32 version  u64 step  u64 optStep  u32 nparams  u32 nslots
//	nparams × ( u32 rows  u32 cols  rows*cols × f64 weight )
//	nslots  × ( nparams × ( rows*cols × f64 state ) )
//	u32 crc32(IEEE) over everything above
//
// Snapshots are taken only at step boundaries, where PR 6's fail-stop
// construction guarantees no torn update can exist, so a checkpoint is
// always a state some uninterrupted run could have reached. Writes go
// through a temp file and an atomic rename: a crash mid-write leaves the
// previous checkpoint intact, and a short write fails the CRC on read.
const (
	ckptMagic   = 0xDA99C4B7
	ckptVersion = 1
	// maxCkptSlots bounds the optimizer slots a checkpoint may declare; no
	// optimizer keeps more than a few per-parameter vectors (Adam keeps 2).
	maxCkptSlots = 16
)

// Checkpoint is one consistent snapshot of a training session's master
// state: the weights of every parameter in Params() order plus the shared
// optimizer's per-parameter state, tagged with the step count that produced
// it.
type Checkpoint struct {
	// Step is the number of completed training steps — the index of the next
	// step a resumed session runs.
	Step int
	// OptStep is the optimizer's update counter (Adam's t).
	OptStep int
	// Weights holds every parameter in Params() order.
	Weights []*tensor.Matrix
	// Slots holds the optimizer's per-parameter state, indexed
	// [slot][param]; empty for stateless optimizers.
	Slots [][][]float64
}

// CaptureCheckpoint snapshots net and opt after step completed steps. The
// weights and state are deep-copied, so the snapshot stays consistent while
// training continues.
func CaptureCheckpoint(step int, net *nn.Network, opt nn.Optimizer) *Checkpoint {
	params := net.Params()
	c := &Checkpoint{Step: step, Weights: make([]*tensor.Matrix, len(params))}
	for i, p := range params {
		w := tensor.New(p.W.Rows, p.W.Cols)
		copy(w.Data, p.W.Data)
		c.Weights[i] = w
	}
	if st, ok := opt.(nn.Stateful); ok {
		os := st.CaptureState(params)
		c.OptStep = os.Step
		c.Slots = os.Slots
	}
	return c
}

// Restore overwrites net's weights and opt's state from the checkpoint; the
// network skeleton must match the one the checkpoint was captured from.
func (c *Checkpoint) Restore(net *nn.Network, opt nn.Optimizer) error {
	params := net.Params()
	if len(params) != len(c.Weights) {
		return fmt.Errorf("train: checkpoint has %d params, network has %d", len(c.Weights), len(params))
	}
	for i, p := range params {
		w := c.Weights[i]
		if w.Rows != p.W.Rows || w.Cols != p.W.Cols {
			return fmt.Errorf("train: checkpoint param %d is %dx%d, network wants %dx%d",
				i, w.Rows, w.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, w.Data)
	}
	if st, ok := opt.(nn.Stateful); ok {
		if len(c.Slots) != st.NumSlots() {
			return fmt.Errorf("train: checkpoint has %d optimizer slots, optimizer wants %d",
				len(c.Slots), st.NumSlots())
		}
		return st.RestoreState(params, nn.OptState{Step: c.OptStep, Slots: c.Slots})
	}
	if len(c.Slots) != 0 {
		return fmt.Errorf("train: checkpoint carries optimizer state for a stateless optimizer")
	}
	return nil
}

// EncodeCheckpoint serializes c into the version-1 binary format.
func EncodeCheckpoint(c *Checkpoint) []byte {
	n := 32
	for _, w := range c.Weights {
		n += 8 + 8*len(w.Data)*(1+len(c.Slots))
	}
	buf := make([]byte, 0, n+4)
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Step))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.OptStep))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Weights)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Slots)))
	for _, w := range c.Weights {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Cols))
		for _, v := range w.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, slot := range c.Slots {
		for _, vec := range slot {
			for _, v := range vec {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeCheckpoint parses and validates a version-1 checkpoint: magic,
// version, internal consistency and the trailing CRC. A truncated or
// bit-flipped file is rejected, never partially applied.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < 36 {
		return nil, fmt.Errorf("train: checkpoint truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("train: checkpoint checksum mismatch (%08x vs %08x)", got, sum)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != ckptMagic {
		return nil, fmt.Errorf("train: bad checkpoint magic %#08x", m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != ckptVersion {
		return nil, fmt.Errorf("train: unsupported checkpoint version %d", v)
	}
	c := &Checkpoint{
		Step:    int(binary.LittleEndian.Uint64(body[8:])),
		OptStep: int(binary.LittleEndian.Uint64(body[16:])),
	}
	nparams := int(binary.LittleEndian.Uint32(body[24:]))
	nslots := int(binary.LittleEndian.Uint32(body[28:]))
	at := 32
	// Every count is checked against the bytes left in the body before
	// anything is allocated: a parameter takes at least 16 bytes (shape plus
	// one weight) and, when there are parameters, every slot at least 8 per
	// parameter. Without parameters the slots are empty, so maxCkptSlots
	// bounds them instead.
	if nparams > (len(body)-at)/16 {
		return nil, fmt.Errorf("train: checkpoint claims %d params in %d bytes", nparams, len(body)-at)
	}
	if nslots > maxCkptSlots || (nparams > 0 && nslots > (len(body)-at)/(8*nparams)) {
		return nil, fmt.Errorf("train: checkpoint claims %d optimizer slots for %d params in %d bytes", nslots, nparams, len(body)-at)
	}
	// need fails unless n more float64s remain in the body; read then fills
	// dst from it.
	need := func(n uint64) error {
		if n > uint64(len(body)-at)/8 {
			return fmt.Errorf("train: checkpoint truncated at byte %d", at)
		}
		return nil
	}
	read := func(dst []float64) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[at:]))
			at += 8
		}
	}
	c.Weights = make([]*tensor.Matrix, nparams)
	for i := range c.Weights {
		if len(body)-at < 8 {
			return nil, fmt.Errorf("train: checkpoint truncated at byte %d", at)
		}
		rows := binary.LittleEndian.Uint32(body[at:])
		cols := binary.LittleEndian.Uint32(body[at+4:])
		at += 8
		if rows == 0 || cols == 0 {
			return nil, fmt.Errorf("train: checkpoint param %d has shape %dx%d", i, rows, cols)
		}
		// Both factors are below 2^32, so the product cannot overflow.
		if err := need(uint64(rows) * uint64(cols)); err != nil {
			return nil, err
		}
		c.Weights[i] = tensor.New(int(rows), int(cols))
		read(c.Weights[i].Data)
	}
	c.Slots = make([][][]float64, nslots)
	for s := range c.Slots {
		c.Slots[s] = make([][]float64, nparams)
		for i, w := range c.Weights {
			if err := need(uint64(len(w.Data))); err != nil {
				return nil, err
			}
			c.Slots[s][i] = make([]float64, len(w.Data))
			read(c.Slots[s][i])
		}
	}
	if at != len(body) {
		return nil, fmt.Errorf("train: checkpoint has %d trailing bytes", len(body)-at)
	}
	return c, nil
}

// WriteCheckpoint writes c to path atomically: the bytes land in a temp file
// in the same directory, are synced, and replace path in one rename, so a
// crash mid-write never corrupts an existing checkpoint.
func WriteCheckpoint(path string, c *Checkpoint) error {
	buf := EncodeCheckpoint(c)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint reads and validates the checkpoint at path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(buf)
}

// ckptName names the checkpoint file of a step count.
func ckptName(step int) string { return fmt.Sprintf("ckpt-%09d.bin", step) }

// SaveCheckpoint writes c into dir (created if missing) under its
// step-derived name and returns the path.
func SaveCheckpoint(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ckptName(c.Step))
	if err := WriteCheckpoint(path, c); err != nil {
		return "", err
	}
	return path, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, trying files in
// descending step order and skipping ones that fail validation (a torn write
// of a later checkpoint falls back to the previous one). It returns nil with
// no error when dir holds no usable checkpoint or does not exist.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, n := range names {
		path := filepath.Join(dir, n)
		c, err := ReadCheckpoint(path)
		if err == nil {
			return c, path, nil
		}
	}
	return nil, "", nil
}

// ckptNames lists dir's checkpoint file names in descending step order.
func ckptNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// PruneCheckpoints deletes old checkpoints from dir, keeping the keep newest
// files plus — always — the newest VALID checkpoint, wherever it sits. That
// extra rule makes pruning safe around torn writes: when the newest file is
// corrupt, the valid file LatestCheckpoint would fall back to is kept even if
// it has aged out of the keep window, so retention can never destroy the only
// recoverable state. Files are validated lazily, newest first, and a dir with
// keep or fewer checkpoints is left untouched. Returns the deleted paths.
func PruneCheckpoints(dir string, keep int) ([]string, error) {
	if keep < 1 {
		return nil, fmt.Errorf("train: checkpoint retention needs keep >= 1, got %d", keep)
	}
	names, err := ckptNames(dir)
	if err != nil || len(names) <= keep {
		return nil, err
	}
	// Find the newest file that actually decodes; everything newer is torn.
	newestValid := ""
	for _, n := range names {
		if _, err := ReadCheckpoint(filepath.Join(dir, n)); err == nil {
			newestValid = n
			break
		}
	}
	var removed []string
	for i, n := range names {
		if i < keep || n == newestValid {
			continue
		}
		path := filepath.Join(dir, n)
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed = append(removed, path)
	}
	return removed, nil
}
