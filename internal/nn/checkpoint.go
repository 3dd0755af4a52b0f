package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Checkpoint is the serialized form of a network's state. Params are the
// learnable parameters; Buffers are the non-learnable state tensors that
// inference nevertheless depends on (batch-normalization running statistics).
// Gradients are transient and never travel. Checkpoints hold full tensors
// under their layer names, so one written from a SeqNet or an InferNet
// restores into either: an InferNet is a StrategyNet on one rank, whose
// tensors are all whole. A StrategyNet's Params are full tensors only where
// its placements replicate them (every uniform sample/spatial grid, as
// NewDistNet builds); under a channel or filter split they are this rank's
// shards under the full names, so CaptureState over them builds a
// checkpoint that LoadState rejects on length. DistInferNet slices a full
// checkpoint into its shards instead (LoadCheckpoint).
type Checkpoint struct {
	Arch    string
	Params  map[string][]float32
	Buffers map[string][]float32
}

func packNamed(dst map[string][]float32, src []Param, kind string) error {
	for _, p := range src {
		if _, dup := dst[p.Name]; dup {
			return fmt.Errorf("nn: duplicate %s name %q", kind, p.Name)
		}
		cp := make([]float32, len(p.W))
		copy(cp, p.W)
		dst[p.Name] = cp
	}
	return nil
}

func unpackNamed(src map[string][]float32, dst []Param, kind string) error {
	for _, p := range dst {
		v, ok := src[p.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing %s %q", kind, p.Name)
		}
		if len(v) != len(p.W) {
			return fmt.Errorf("nn: %s %q has %d values in checkpoint, want %d", kind, p.Name, len(v), len(p.W))
		}
		copy(p.W, v)
	}
	return nil
}

// SaveState writes the full network state — parameters and buffers — to w as
// a gob stream. This is the form the serving subsystem loads: without the
// batch-normalization running statistics an eval-mode forward pass would
// normalize with the initialization values.
func SaveState(w io.Writer, archName string, params, buffers []Param) error {
	ck, err := CaptureState(archName, params, buffers)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadState reads a checkpoint from r and copies values into params and
// buffers. Every entry must be present with a matching length; archName
// guards against loading weights into a different architecture. A
// checkpoint saved without buffers fails LoadState when buffers are
// requested — serving requires a full-state checkpoint.
func LoadState(r io.Reader, archName string, params, buffers []Param) error {
	ck, err := ReadCheckpoint(r)
	if err != nil {
		return err
	}
	return ck.Restore(archName, params, buffers)
}

// ReadCheckpoint decodes a checkpoint without binding it to a network —
// the form consumers that shard state (DistInferNet, the serving fleet)
// work from, since their per-rank parameter slices cannot be restored by
// the whole-tensor copy LoadState performs.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	return &ck, nil
}

// CaptureState builds an in-memory checkpoint from a live network's params
// and buffers — what the serving fleet hands to replica ranks so sharded
// replicas can slice the full tensors without a file round trip.
func CaptureState(archName string, params, buffers []Param) (*Checkpoint, error) {
	ck := &Checkpoint{
		Arch:    archName,
		Params:  make(map[string][]float32, len(params)),
		Buffers: make(map[string][]float32, len(buffers)),
	}
	if err := packNamed(ck.Params, params, "parameter"); err != nil {
		return nil, err
	}
	if err := packNamed(ck.Buffers, buffers, "buffer"); err != nil {
		return nil, err
	}
	return ck, nil
}

// Restore copies the checkpoint's values into params and buffers with the
// same contract as LoadState.
func (ck *Checkpoint) Restore(archName string, params, buffers []Param) error {
	if ck.Arch != archName {
		return fmt.Errorf("nn: checkpoint is for architecture %q, not %q", ck.Arch, archName)
	}
	if err := unpackNamed(ck.Params, params, "parameter"); err != nil {
		return err
	}
	return unpackNamed(ck.Buffers, buffers, "buffer")
}
