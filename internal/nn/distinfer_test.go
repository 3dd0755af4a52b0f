package nn

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// runDistInfer executes fn SPMD on p ranks, each holding a DistInferNet of
// arch with the given split, and returns the leader's outputs for each
// requested live-row count (forwarding the same capacity-sized input).
func runDistInfer(t *testing.T, arch *Arch, p, maxB int, split dist.Split,
	setup func(net *DistInferNet) error, x *tensor.Tensor, lives []int) [][]float32 {
	t.Helper()
	pls := ShardedPlacements(arch, p, split)
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
			y := net.Forward(x, live)
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

// A warm sharded forward must allocate nothing: all activations are
// preallocated, collectives stage through the comm pool, and the output
// gather reuses cached views.
func TestDistInferForwardZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const size, maxB = 8, 4
	arch := servingArch(size, size)
	pls := ShardedPlacements(arch, 2, dist.SplitFilter)
	x := tensor.New(maxB, 3, size, size)
	x.FillRandN(17, 1)
	var got float64
	var mu sync.Mutex
	w := comm.NewWorld(2)
	w.Run(func(c *comm.Comm) {
		net, err := NewDistInferNet(c, arch, maxB, pls)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			net.Forward(x, maxB)
		}
		const runs = 20
		if c.Rank() == 0 {
			a := testing.AllocsPerRun(runs, func() { net.Forward(x, maxB) })
			mu.Lock()
			got = a
			mu.Unlock()
		} else {
			for i := 0; i < runs+1; i++ {
				net.Forward(x, maxB)
			}
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per warm sharded forward, want 0", got)
	}
}

// IsLeader reports whether this rank assembles (and returns) the output.
func (n *DistInferNet) IsLeader() bool { return n.ctx.Rank == 0 }

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
