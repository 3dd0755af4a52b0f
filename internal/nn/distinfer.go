package nn

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// DistInferNet is one replica group's serving engine, the "model too big
// for one device" path: the forward-only StrategyNet that InferNet runs on
// one rank, here on the grid {PN:1, PC:p, PH:1, PW:1}, each rank holding
// the channel/filter shard of every layer that its Placement names
// (Section III-D). It adds what is specific to a group: slicing this
// rank's channel block out of the replicated input, the leader's output
// gather and the staging buffer.
//
// A forward computes only the live rows, with rank-order stable
// collectives and row-stable kernels, so answers are bitwise deterministic
// under dynamic batching. Under SplitFilter every rank gathers the whole
// input and computes whole weight rows, with batchnorm and ReLU folded
// into its filter block's epilogue, so the assembled output is bitwise an
// InferNet's on the same weights, which lets the serving fleet mix sharded
// and unsharded replicas. SplitChannel reassociates the channel sum across
// blocks (deterministic, not bitwise equal across decompositions) and
// folds nothing into its convolutions. Once each live count has been seen,
// a Forward allocates nothing. Like InferNet, it is one replica, not safe
// for concurrent Forward calls.
type DistInferNet struct {
	engine // net runs on the group's context, net.world

	in      core.Owned // input shard, refilled each Forward
	inRange dist.Range // this rank's input-channel block

	// Leader-side output assembly (filled only on rank 0): every channel of
	// the output, on a one-rank grid.
	out       core.Owned
	outDist   dist.Dist
	outBlocks []dist.Range
	tag       int

	// Persistent region scratch so warm extracts/inserts allocate nothing.
	off, size [4]int

	staging *tensor.Tensor // the replicated-input buffer StagingInput returns
}

// StagingInput returns a preallocated [MaxBatch, C, H, W] tensor suitable
// as the Forward input: callers (the serving replica loop) copy live rows
// into its prefix and pass it collectively. Rows past live are never read.
// One buffer per net, reused across batches.
func (n *DistInferNet) StagingInput() *tensor.Tensor { return n.staging }

// ShardedPlacements builds the uniform per-layer placement list a serving
// replica group uses: every layer on the {PN:1, PC:p, PH:1, PW:1} grid,
// convolutions partitioned on the given weight dimension. Use
// dist.SplitFilter when the sharded replica must answer bitwise identically
// to an unsharded one.
func ShardedPlacements(arch *Arch, p int, split dist.Split) []dist.Placement {
	g := dist.Grid{PN: 1, PC: p, PH: 1, PW: 1}
	out := make([]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		out[i] = dist.Placement{Grid: g}
		if s.Kind == KindConv {
			out[i].Split = split
		}
		out[i] = out[i].Norm()
	}
	return out
}

// NewDistInferNet instantiates the forward-only sharded engine for this
// rank. It must be called collectively by every rank of c; placements has
// one entry per spec, all on the same {PN:1, PC:c.Size(), PH:1, PW:1} grid.
// Weights start He-initialized with the same per-layer seeds NewInferNet
// uses (each rank holding its slice of the identical full tensor); restore
// real ones collectively with LoadState/LoadCheckpoint.
func NewDistInferNet(c *comm.Comm, arch *Arch, maxBatch int, placements []dist.Placement) (*DistInferNet, error) {
	if len(placements) != len(arch.Specs) {
		return nil, fmt.Errorf("nn: %d placements for %d layers", len(placements), len(arch.Specs))
	}
	p := c.Size()
	grid := dist.Grid{PN: 1, PC: p, PH: 1, PW: 1}.Norm()
	for i, pl := range placements {
		if g := pl.Norm().Grid; g != grid {
			return nil, fmt.Errorf("nn: layer %d (%s): placement grid %v, want %v (one channel group per replica)",
				i, arch.Specs[i].Name, g, grid)
		}
	}
	ctx := core.NewCtx(c, grid)
	net, err := newStrategyNet(ctx, arch, maxBatch, 0, placements, true, nil)
	if err != nil {
		return nil, err
	}
	in := arch.In
	n := &DistInferNet{engine: engine{net: net, maxN: maxBatch}, staging: tensor.New(maxBatch, in.C, in.H, in.W)}
	n.inRange = net.InputDist().RangeC(ctx.Rank)
	out := n.OutShape()
	n.outDist = dist.Dist{Grid: dist.Grid{PN: 1, PH: 1, PW: 1}, N: maxBatch, C: out.C, H: out.H, W: out.W}
	n.outBlocks = make([]dist.Range, p)
	for q := range n.outBlocks {
		n.outBlocks[q] = net.OutputDist().RangeC(q)
	}
	n.tag = ctx.AllocTags(1)
	return n, nil
}

// Forward runs the sharded DAG on the live rows alone. It must be called
// collectively by every rank of the group with a bitwise-identical x of
// shape [MaxBatch, C, H, W] whose first live rows carry the batch; rows
// past live are never read. The leader returns the assembled [live, ...]
// output, valid until the next Forward; other ranks return nil.
func (n *DistInferNet) Forward(x *tensor.Tensor, live int) *tensor.Tensor {
	xs := x.Shape()
	in := n.net.Arch.In
	if len(xs) != 4 || xs[0] != n.maxN || xs[1] != in.C || xs[2] != in.H || xs[3] != in.W {
		panic(fmt.Sprintf("nn: dist infer input shape %v, want [%d %d %d %d]", xs, n.maxN, in.C, in.H, in.W))
	}
	if live < 1 || live > n.maxN {
		panic(fmt.Sprintf("nn: dist infer live rows %d outside [1, %d]", live, n.maxN))
	}
	// Slice the live rows of this rank's input-channel block out of the
	// replicated input.
	shard := n.in.Rows(n.net.InputDist(), n.net.world.Rank, live)
	n.off = [4]int{0, n.inRange.Lo, 0, 0}
	n.size = [4]int{live, n.inRange.Len(), in.H, in.W}
	x.ExtractRegionInto(tensor.Region{Off: n.off[:], Size: n.size[:]}, shard.Local.Data())
	y := n.net.Forward(shard)
	var t int64
	if n.net.trace != nil {
		t = obs.Start()
	}
	out := n.gatherOutput(y, live)
	n.net.trace.Record(obs.StageGather, 0, n.net.traceID, t, 0)
	return out
}

// gatherOutput assembles the channel-partitioned final shard on the leader:
// y holds the live rows of this rank's block, every other rank sends them,
// and the leader inserts them (and its own) into the full output. Payloads
// stage through the comm pool, so a warm gather allocates nothing.
func (n *DistInferNet) gatherOutput(y core.DistTensor, live int) *tensor.Tensor {
	c := n.net.world.C
	if c.Rank() != 0 {
		buf := comm.GetBuf(y.Local.Size())
		copy(buf, y.Local.Data())
		c.SendNoCopy(0, n.tag, buf)
		return nil
	}
	out := n.out.Rows(n.outDist, 0, live).Local
	for q := 0; q < c.Size(); q++ {
		blk := n.outBlocks[q]
		n.off = [4]int{0, blk.Lo, 0, 0}
		n.size = [4]int{live, blk.Len(), n.outDist.H, n.outDist.W}
		r := tensor.Region{Off: n.off[:], Size: n.size[:]}
		if q == 0 {
			out.InsertRegion(r, y.Local.Data())
			continue
		}
		data := c.Recv(q, n.tag)
		if want := r.NumElems(); len(data) != want {
			panic(fmt.Sprintf("nn: dist infer gather got %d words from rank %d, want %d", len(data), q, want))
		}
		out.InsertRegion(r, data)
		c.Release(data)
	}
	return out
}

// LoadCheckpoint restores an in-memory checkpoint into this rank's shards:
// every layer extracts its channel/filter slice of the full tensors.
func (n *DistInferNet) LoadCheckpoint(ck *Checkpoint) error { return n.net.loadShards(ck) }
