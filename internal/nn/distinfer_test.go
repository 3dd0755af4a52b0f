package nn

import (
	"bytes"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// runDistInfer executes fn SPMD on p ranks, each holding a DistInferNet of
// arch with the given split, and returns the leader's outputs for each
// requested live-row count. Each forward gets the capacity-sized x with
// every row past live set to NaN, so an answer that read padding would
// not be finite.
func runDistInfer(t *testing.T, arch *Arch, p, maxB int, split dist.Split,
	setup func(net *DistInferNet) error, x *tensor.Tensor, lives []int) [][]float32 {
	t.Helper()
	pls := ShardedPlacements(arch, p, split)
	padded := make([]*tensor.Tensor, len(lives))
	for i, live := range lives {
		padded[i] = x.Clone()
		d := padded[i].Data()
		for j := live * len(d) / maxB; j < len(d); j++ {
			d[j] = float32(math.NaN())
		}
	}
	outs := make([][]float32, len(lives))
	var mu sync.Mutex
	var firstErr error
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		net, err := NewDistInferNet(c, arch, maxB, pls)
		if err == nil && setup != nil {
			err = setup(net)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		for i, live := range lives {
			y := net.Forward(padded[i], live)
			if net.IsLeader() {
				cp := make([]float32, y.Size())
				copy(cp, y.Data())
				mu.Lock()
				outs[i] = cp
				mu.Unlock()
			}
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return outs
}

// refOutputs runs the same live-row prefixes through an InferNet.
func refOutputs(ref *InferNet, x *tensor.Tensor, lives []int) [][]float32 {
	in := ref.InShape()
	outs := make([][]float32, len(lives))
	for i, live := range lives {
		v := tensor.FromSlice(x.Data()[:live*in.C*in.H*in.W], live, in.C, in.H, in.W)
		y := ref.Forward(v)
		outs[i] = make([]float32, y.Size())
		copy(outs[i], y.Data())
	}
	return outs
}

// A filter-sharded replica must answer bit-for-bit like the unsharded
// engine on the same (fresh, seed-matched) weights, for every live-row
// count — the property that lets the serving fleet mix sharded and
// unsharded replicas without clients noticing which one answered.
func TestDistInferNetFilterSplitMatchesInferNetBitwise(t *testing.T) {
	const size, maxB = 8, 4
	arch := servingArch(size, size)
	ref, err := NewInferNet(arch, maxB)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(7, 1)
	lives := []int{1, 2, 3, 4}
	want := refOutputs(ref, x, lives)
	for _, p := range []int{1, 2} {
		got := runDistInfer(t, arch, p, maxB, dist.SplitFilter, nil, x, lives)
		for i := range lives {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("p=%d live=%d: output size %d, want %d", p, lives[i], len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("p=%d live=%d: output[%d] = %v, want %v (bitwise)", p, lives[i], j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// The checkpoint satellite: LoadState into a placement-sharded DistInferNet
// must produce bitwise-identical eval-mode outputs to the single-replica
// InferNet restored from the same checkpoint.
func TestDistInferCheckpointBitwise(t *testing.T) {
	const size, n, maxB = 8, 4, 4
	arch := servingArch(size, size)
	seq, err := NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, seq, n, size, size)
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, seq.Params(), seq.Buffers()); err != nil {
		t.Fatal(err)
	}
	state := buf.Bytes()

	ref, err := NewInferNet(arch, maxB)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(bytes.NewReader(state), arch.Name, ref.Params(), ref.Buffers()); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(9, 1)
	lives := []int{1, 3, 4}
	want := refOutputs(ref, x, lives)
	got := runDistInfer(t, arch, 2, maxB, dist.SplitFilter,
		func(net *DistInferNet) error { return net.LoadState(bytes.NewReader(state)) },
		x, lives)
	for i := range lives {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("live=%d: output[%d] = %v, want %v (bitwise)", lives[i], j, got[i][j], want[i][j])
			}
		}
	}
}

// Restoring a checkpoint into a replica that has already served (the
// rejoin state transfer) must drop the weights its convolutions prepacked
// on the first forward. Under the filter split the answers afterwards are
// bitwise an InferNet's restored from the same checkpoint; under the
// channel split, bitwise those of a replica that never served.
func TestDistInferRestoreAfterServe(t *testing.T) {
	const size, n, maxB = 8, 4, 4
	arch := servingArch(size, size)
	seq, err := NewSeqNet(arch, 3)
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, seq, n, size, size)
	ck, err := CaptureState(arch.Name, seq.Params(), seq.Buffers())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(19, 1)
	lives := []int{1, 4}
	served := func(net *DistInferNet) error {
		net.Forward(x, maxB)
		return net.LoadCheckpoint(ck)
	}
	fresh := func(net *DistInferNet) error { return net.LoadCheckpoint(ck) }

	ref, err := NewInferNet(arch, maxB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(arch.Name, ref.Params(), ref.Buffers()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		split dist.Split
		want  [][]float32
	}{
		{dist.SplitFilter, refOutputs(ref, x, lives)},
		{dist.SplitChannel, runDistInfer(t, arch, 2, maxB, dist.SplitChannel, fresh, x, lives)},
	} {
		got := runDistInfer(t, arch, 2, maxB, tc.split, served, x, lives)
		for i := range lives {
			for j := range tc.want[i] {
				if got[i][j] != tc.want[i][j] {
					t.Fatalf("%v split live=%d: output[%d] = %v after restore, want %v (bitwise)",
						tc.split, lives[i], j, got[i][j], tc.want[i][j])
				}
			}
		}
	}
}

// Channel-split shards reassociate the channel sum, so they are only
// float-close to the unsharded engine — but they must be bitwise
// deterministic across repeated forwards and identical runs.
func TestDistInferChannelSplitDeterministic(t *testing.T) {
	const size, maxB = 8, 4
	arch := servingArch(size, size)
	ref, err := NewInferNet(arch, maxB)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(13, 1)
	lives := []int{2, 2, 4}
	a := runDistInfer(t, arch, 2, maxB, dist.SplitChannel, nil, x, lives)
	b := runDistInfer(t, arch, 2, maxB, dist.SplitChannel, nil, x, lives)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("run-to-run divergence at output[%d][%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	if a[0][0] != a[1][0] {
		// Same live count forwarded twice inside one run must agree too.
		t.Fatalf("repeat forward diverged: %v vs %v", a[0][0], a[1][0])
	}
	want := refOutputs(ref, x, lives)
	for i := range want {
		for j := range want[i] {
			d := float64(a[i][j] - want[i][j])
			if d < 0 {
				d = -d
			}
			if d > 1e-4 {
				t.Fatalf("live=%d output[%d]: channel-split %v far from reference %v", lives[i], j, a[i][j], want[i][j])
			}
		}
	}
}

// A warm sharded forward must allocate nothing under either split, at any
// live count: all layers own their outputs and their prefix views,
// collectives stage through the comm pool, and the output gather reuses
// cached views. Each live count is warmed once, then a mixed cycle runs.
func TestDistInferForwardZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const size, maxB = 8, 4
	arch := servingArch(size, size)
	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(17, 1)
	for _, split := range []dist.Split{dist.SplitFilter, dist.SplitChannel} {
		pls := ShardedPlacements(arch, 2, split)
		var got float64
		var mu sync.Mutex
		w := comm.NewWorld(2)
		w.Run(func(c *comm.Comm) {
			net, err := NewDistInferNet(c, arch, maxB, pls)
			if err != nil {
				t.Error(err)
				return
			}
			cycle := func() {
				for _, live := range []int{1, 2, 3, maxB, 2, 1, maxB, 3} {
					net.Forward(x, live)
				}
			}
			for _, live := range []int{1, 2, 3, maxB} {
				net.Forward(x, live)
			}
			const runs = 10
			if c.Rank() == 0 {
				a := testing.AllocsPerRun(runs, cycle)
				mu.Lock()
				got = a
				mu.Unlock()
			} else {
				for i := 0; i < runs+1; i++ {
					cycle()
				}
			}
		})
		if got != 0 {
			t.Errorf("%v split: %v allocs per warm cycle of sharded forwards, want 0", split, got)
		}
	}
}

// IsLeader reports whether this rank assembles (and returns) the output.
func (n *DistInferNet) IsLeader() bool { return n.net.world.Rank == 0 }

// LoadState restores a full-state checkpoint (written by nn.SaveState from
// any executor of the same architecture) into this rank's shards. Each rank
// reads the checkpoint independently — call collectively with the same
// bytes on every rank.
func (n *DistInferNet) LoadState(r io.Reader) error {
	ck, err := ReadCheckpoint(r)
	if err != nil {
		return err
	}
	return n.LoadCheckpoint(ck)
}
