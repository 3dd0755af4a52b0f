package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// bnFreeArch: micro-batch gradient accumulation is exactly equivalent to a
// full-batch pass only without batch statistics.
func bnFreeArch(size int) *Arch {
	b := NewBuilder("bnfree", Shape{C: 2, H: size, W: size})
	c := b.Conv("c1", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true)
	c = b.ReLU("r1", c)
	c = b.Conv("c2", c, 6, dist.ConvGeom{K: 3, S: 2, Pad: 1}, true)
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	return b.MustBuild()
}

func TestMicroBatchMatchesFullBatch(t *testing.T) {
	arch := bnFreeArch(8)
	n := 6
	x := tensor.New(n, 2, 8, 8)
	x.FillRandN(1, 1)
	labels := make([]int32, n*4*4)
	rng := rand.New(rand.NewSource(2))
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}

	// Full-batch reference gradients.
	ref, err := NewSeqNet(arch, 5)
	if err != nil {
		t.Fatal(err)
	}
	logits := ref.Forward(x)
	refLoss, dl := SegLoss(logits, labels)
	ref.Backward(dl)
	refParams := ref.Params()

	for _, mb := range []int{1, 2, 3, 6} {
		net, err := NewSeqNet(arch, 5) // same seed: identical weights
		if err != nil {
			t.Fatal(err)
		}
		loss := SegMicroBatchStep(net, x, labels, mb)
		if d := loss - refLoss; d > 1e-5 || d < -1e-5 {
			t.Errorf("mb=%d: loss %g vs full-batch %g", mb, loss, refLoss)
		}
		for i, p := range net.Params() {
			for j := range p.G {
				d := float64(p.G[j] - refParams[i].G[j])
				if d > 1e-4 || d < -1e-4 {
					t.Errorf("mb=%d: %s grad[%d] = %v vs %v", mb, p.Name, j, p.G[j], refParams[i].G[j])
					break
				}
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	arch := bnFreeArch(8)
	a, _ := NewSeqNet(arch, 1)
	b, _ := NewSeqNet(arch, 2) // different weights
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, a.Params(), nil); err != nil {
		t.Fatal(err)
	}
	if err := LoadState(&buf, arch.Name, b.Params(), nil); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].W {
			if ap[i].W[j] != bp[i].W[j] {
				t.Fatalf("param %s[%d] not restored", ap[i].Name, j)
			}
		}
	}
	// Checkpointed networks must produce identical outputs.
	x := tensor.New(2, 2, 8, 8)
	x.FillRandN(3, 1)
	if a.Forward(x).MaxAbsDiff(b.Forward(x)) != 0 {
		t.Fatal("restored network computes different outputs")
	}
}

func TestCheckpointArchMismatch(t *testing.T) {
	arch := bnFreeArch(8)
	net, _ := NewSeqNet(arch, 1)
	var buf bytes.Buffer
	if err := SaveState(&buf, "modelA", net.Params(), nil); err != nil {
		t.Fatal(err)
	}
	err := LoadState(&buf, "modelB", net.Params(), nil)
	if err == nil || !strings.Contains(err.Error(), "architecture") {
		t.Fatalf("architecture mismatch not detected: %v", err)
	}
}

func TestCheckpointMissingParam(t *testing.T) {
	arch := bnFreeArch(8)
	net, _ := NewSeqNet(arch, 1)
	var buf bytes.Buffer
	// Save only a subset.
	if err := SaveState(&buf, arch.Name, net.Params()[:1], nil); err != nil {
		t.Fatal(err)
	}
	if err := LoadState(&buf, arch.Name, net.Params(), nil); err == nil {
		t.Fatal("missing parameter not detected")
	}
}

func TestCheckpointSizeMismatch(t *testing.T) {
	arch := bnFreeArch(8)
	net, _ := NewSeqNet(arch, 1)
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, net.Params(), nil); err != nil {
		t.Fatal(err)
	}
	ps := net.Params()
	ps[0].W = ps[0].W[:4] // truncated target
	if err := LoadState(&buf, arch.Name, ps, nil); err == nil {
		t.Fatal("length mismatch not detected")
	}
}
