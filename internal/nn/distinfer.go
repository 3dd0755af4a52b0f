package nn

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// DistInferNet is the distributed counterpart of InferNet: a forward-only
// execution engine whose layers are placement-sharded over a group of comm
// ranks, built on core's forward-only layers — the "model too big for one
// device" serving path. Each rank of the group holds one channel/filter
// shard of every layer (grid {PN:1, PC:p, PH:1, PW:1}); each convolution
// is a forward-only core.Conv whose Split (Section III-D) comes from its
// Placement, and activation collectives are rank-order stable, so answers
// are bitwise deterministic under dynamic batching.
//
// Under SplitFilter every rank gathers the complete input channels and
// computes complete weight rows with the batched row-stable kernel, so the
// assembled output is bitwise identical to an unsharded InferNet on the
// same weights — the property the serving fleet's mixed sharded/unsharded
// replica sets rely on; so is a 1-rank group, whose convolutions are
// replicated. SplitChannel reassociates the channel sum across blocks
// (deterministic, but not bitwise equal across decompositions).
//
// All activation storage is preallocated at construction and every forward
// runs at the fixed capacity batch (per-sample independence of the batched
// kernels makes live rows bitwise independent of the padding), so a warm
// Forward performs no heap allocations. Like InferNet, a DistInferNet is
// not safe for concurrent Forward calls; it is one replica.
type DistInferNet struct {
	Arch       *Arch
	ShapeOf    []Shape
	Placements []dist.Placement

	ctx    *core.Ctx
	maxN   int
	layers []distInferLayer
	dists  []dist.Dist
	cur    []core.DistTensor

	in      core.DistTensor // input shard, refilled each Forward
	inRange dist.Range      // this rank's input-channel block

	// Leader-side output assembly (allocated on every rank; only rank 0's
	// is filled — the memory is small, one output tensor).
	outFull   *tensor.Tensor
	outViews  []*tensor.Tensor
	outBlocks []dist.Range
	tag       int

	// Persistent region scratch so warm extracts/inserts allocate nothing.
	sOff, sSize, dOff, dSize [4]int

	staging *tensor.Tensor // lazily allocated replicated-input buffer

	trace   *obs.Ring // this rank's flight-recorder track; nil = no hooks
	traceID uint64    // correlation id stamped on spans (serving batch seq)
}

// SetTrace attaches this rank's flight-recorder ring: Forward then emits
// per-layer and gather spans on it when tracing is enabled. Nil detaches.
func (n *DistInferNet) SetTrace(r *obs.Ring) { n.trace = r }

// SetTraceID sets the correlation id stamped on subsequent spans; the
// serving leader broadcasts the batch seq so every shard rank tags alike.
func (n *DistInferNet) SetTraceID(id uint64) { n.traceID = id }

// StagingInput returns a preallocated [MaxBatch, C, H, W] tensor suitable
// as the Forward input: callers (the serving replica loop) copy live rows
// into its prefix and pass it collectively. It starts zeroed, so padding
// rows are always finite. One buffer per net, reused across batches.
func (n *DistInferNet) StagingInput() *tensor.Tensor {
	if n.staging == nil {
		in := n.Arch.In
		n.staging = tensor.New(n.maxN, in.C, in.H, in.W)
	}
	return n.staging
}

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
	if maxBatch < 1 {
		return nil, fmt.Errorf("nn: dist infer net needs maxBatch >= 1, got %d", maxBatch)
	}
	if len(placements) != len(arch.Specs) {
		return nil, fmt.Errorf("nn: %d placements for %d layers", len(placements), len(arch.Specs))
	}
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	p := c.Size()
	grid := dist.Grid{PN: 1, PC: p, PH: 1, PW: 1}.Norm()
	for i, pl := range placements {
		pl = pl.Norm()
		if pl.Grid != grid {
			return nil, fmt.Errorf("nn: layer %d (%s): placement grid %v, want %v (one channel group per replica)",
				i, arch.Specs[i].Name, pl.Grid, grid)
		}
		if arch.Specs[i].Kind == KindConv && p > 1 && pl.Split == dist.SplitNone {
			return nil, fmt.Errorf("nn: layer %d (%s): sharded replica requires SplitChannel or SplitFilter", i, arch.Specs[i].Name)
		}
	}
	ctx := core.NewCtx(c, grid)
	n := &DistInferNet{
		Arch:       arch,
		ShapeOf:    shapes,
		Placements: placements,
		ctx:        ctx,
		maxN:       maxBatch,
		layers:     make([]distInferLayer, len(arch.Specs)),
		dists:      make([]dist.Dist, len(arch.Specs)),
		cur:        make([]core.DistTensor, len(arch.Specs)),
	}
	for i, sh := range shapes {
		n.dists[i] = dist.Dist{Grid: grid, N: maxBatch, C: sh.C, H: sh.H, W: sh.W}
		if err := n.dists[i].Validate(); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %v", i, arch.Specs[i].Name, err)
		}
	}
	for i, s := range arch.Specs {
		var inD dist.Dist
		var inShape Shape
		if len(s.Parents) > 0 {
			inShape = shapes[s.Parents[0]]
			inD = n.dists[s.Parents[0]]
		}
		switch s.Kind {
		case KindInput:
			n.in = core.NewDistTensor(n.dists[0], ctx.Rank)
			n.inRange = n.dists[0].RangeC(ctx.Rank)
		case KindConv:
			l := core.NewPlacedConv(ctx, inD, s.F, s.Geom, s.Bias, placements[i].Norm().Split, true)
			initConv(l, int64(i))
			n.layers[i] = diConv{l}
		case KindBatchNorm:
			n.layers[i] = &diBN{l: core.NewBatchNormInference(ctx, inD), cr: inD.RangeC(ctx.Rank), c: inShape.C}
		case KindReLU:
			n.layers[i] = &diReLU{out: core.NewDistTensor(n.dists[i], ctx.Rank)}
		case KindMaxPool:
			n.layers[i] = &diMaxPool{spec: s, out: core.NewDistTensor(n.dists[i], ctx.Rank)}
		case KindGlobalAvgPool:
			n.layers[i] = &diGAP{out: core.NewDistTensor(n.dists[i], ctx.Rank)}
		case KindAdd:
			n.layers[i] = &diAdd{out: core.NewDistTensor(n.dists[i], ctx.Rank)}
		default:
			return nil, fmt.Errorf("nn: unsupported kind %v in dist infer net", s.Kind)
		}
	}
	out := shapes[len(shapes)-1]
	n.outFull = tensor.New(maxBatch, out.C, out.H, out.W)
	n.outViews = make([]*tensor.Tensor, maxBatch+1)
	n.outViews[maxBatch] = n.outFull
	n.outBlocks = make([]dist.Range, p)
	for q := range n.outBlocks {
		n.outBlocks[q] = n.dists[len(n.dists)-1].RangeC(q)
	}
	n.tag = ctx.AllocTags(1)
	return n, nil
}

// OutShape returns the per-sample output shape.
func (n *DistInferNet) OutShape() Shape { return n.ShapeOf[len(n.ShapeOf)-1] }

// Forward runs the sharded DAG. It must be called collectively by every
// rank of the group with a bitwise-identical x of shape
// [MaxBatch, C, H, W] whose first live rows carry the batch (rows past live
// may hold anything: every kernel on the path is row-independent, so live
// outputs never see them). The leader returns the assembled [live, ...]
// output, valid until the next Forward; other ranks return nil.
func (n *DistInferNet) Forward(x *tensor.Tensor, live int) *tensor.Tensor {
	xs := x.Shape()
	in := n.Arch.In
	if len(xs) != 4 || xs[0] != n.maxN || xs[1] != in.C || xs[2] != in.H || xs[3] != in.W {
		panic(fmt.Sprintf("nn: dist infer input shape %v, want [%d %d %d %d]", xs, n.maxN, in.C, in.H, in.W))
	}
	if live < 1 || live > n.maxN {
		panic(fmt.Sprintf("nn: dist infer live rows %d outside [1, %d]", live, n.maxN))
	}
	// Slice this rank's input-channel block out of the replicated input.
	n.sOff = [4]int{0, n.inRange.Lo, 0, 0}
	n.sSize = [4]int{n.maxN, n.inRange.Len(), in.H, in.W}
	x.ExtractRegionInto(tensor.Region{Off: n.sOff[:], Size: n.sSize[:]}, n.in.Local.Data())
	n.cur[0] = n.in

	var ins [2]core.DistTensor
	for i := 1; i < len(n.layers); i++ {
		for j, p := range n.Arch.Specs[i].Parents {
			ins[j] = n.cur[p]
		}
		if n.trace != nil {
			t := obs.Start()
			n.cur[i] = n.layers[i].forward(n.ctx, ins)
			n.trace.Record(layerStage(n.Arch.Specs[i].Kind), 0, n.traceID, t, int64(i))
		} else {
			n.cur[i] = n.layers[i].forward(n.ctx, ins)
		}
	}
	var t int64
	if n.trace != nil {
		t = obs.Start()
	}
	out := n.gatherOutput(n.cur[len(n.cur)-1], live)
	n.trace.Record(obs.StageGather, 0, n.traceID, t, 0)
	return out
}

// gatherOutput assembles the channel-partitioned final shard on the leader:
// every other rank sends the live rows of its block, the leader inserts
// them (and its own) into the full output. Payloads stage through the comm
// pool, so a warm gather allocates nothing.
func (n *DistInferNet) gatherOutput(y core.DistTensor, live int) *tensor.Tensor {
	c := n.ctx.C
	me := c.Rank()
	out := n.OutShape()
	myBlk := n.outBlocks[me]
	n.sOff = [4]int{0, 0, 0, 0}
	n.sSize = [4]int{live, myBlk.Len(), out.H, out.W}
	if me != 0 {
		buf := comm.GetBuf(live * myBlk.Len() * out.H * out.W)
		y.Local.ExtractRegionInto(tensor.Region{Off: n.sOff[:], Size: n.sSize[:]}, buf)
		c.SendNoCopy(0, n.tag, buf)
		return nil
	}
	n.dOff = [4]int{0, myBlk.Lo, 0, 0}
	n.dSize = n.sSize
	n.outFull.InsertRegion(tensor.Region{Off: n.dOff[:], Size: n.dSize[:]},
		y.Local.Data()[:live*myBlk.Len()*out.H*out.W])
	for q := 1; q < c.Size(); q++ {
		data := c.Recv(q, n.tag)
		blk := n.outBlocks[q]
		if want := live * blk.Len() * out.H * out.W; len(data) != want {
			panic(fmt.Sprintf("nn: dist infer gather got %d words from rank %d, want %d", len(data), q, want))
		}
		n.dOff = [4]int{0, blk.Lo, 0, 0}
		n.dSize = [4]int{live, blk.Len(), out.H, out.W}
		n.outFull.InsertRegion(tensor.Region{Off: n.dOff[:], Size: n.dSize[:]}, data)
		c.Release(data)
	}
	if v := n.outViews[live]; v != nil {
		return v
	}
	v := tensor.FromSlice(n.outFull.Data()[:live*out.C*out.H*out.W], live, out.C, out.H, out.W)
	n.outViews[live] = v
	return v
}

// LoadCheckpoint restores an in-memory checkpoint into this rank's shards:
// every layer extracts its channel/filter slice of the full tensors.
func (n *DistInferNet) LoadCheckpoint(ck *Checkpoint) error {
	if ck.Arch != n.Arch.Name {
		return fmt.Errorf("nn: checkpoint is for architecture %q, not %q", ck.Arch, n.Arch.Name)
	}
	for i, l := range n.layers {
		if l == nil {
			continue
		}
		if err := l.load(ck, n.Arch.Specs[i].Name); err != nil {
			return fmt.Errorf("nn: layer %s: %w", n.Arch.Specs[i].Name, err)
		}
	}
	return nil
}

// ckEntry fetches a checkpoint tensor by name with a length check.
func ckEntry(m map[string][]float32, name, kind string, want int) ([]float32, error) {
	v, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint missing %s %q", kind, name)
	}
	if len(v) != want {
		return nil, fmt.Errorf("%s %q has %d values in checkpoint, want %d", kind, name, len(v), want)
	}
	return v, nil
}

// distInferLayer is one sharded forward-only layer: forward consumes the
// parents' shards, load slices this rank's portion out of a full
// checkpoint. All output storage is owned by the layer and overwritten by
// the next call.
type distInferLayer interface {
	forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor
	load(ck *Checkpoint, name string) error
}

// diConv is a forward-only convolution under any split.
type diConv struct{ l *core.Conv }

func (d diConv) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	return d.l.Forward(ctx, ins[0])
}

func (d diConv) load(ck *Checkpoint, name string) error {
	f, c, k := d.l.OutDist.C, d.l.InDist.C, d.l.Geom.K
	w, err := ckEntry(ck.Params, name+".w", "parameter", f*c*k*k)
	if err != nil {
		return err
	}
	var b []float32
	if d.l.Bias != nil {
		if b, err = ckEntry(ck.Params, name+".b", "parameter", f); err != nil {
			return err
		}
	}
	loadConv(d.l, w, b)
	return nil
}

type diBN struct {
	l  *core.BatchNorm
	cr dist.Range
	c  int
}

func (d *diBN) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	return d.l.Forward(ctx, ins[0])
}

func (d *diBN) load(ck *Checkpoint, name string) error {
	for _, f := range []struct {
		m    map[string][]float32
		key  string
		kind string
		dst  []float32
	}{
		{ck.Params, name + ".gamma", "parameter", d.l.Gamma},
		{ck.Params, name + ".beta", "parameter", d.l.Beta},
		{ck.Buffers, name + ".running_mean", "buffer", d.l.RunMean},
		{ck.Buffers, name + ".running_var", "buffer", d.l.RunVar},
	} {
		v, err := ckEntry(f.m, f.key, f.kind, d.c)
		if err != nil {
			return err
		}
		copy(f.dst, v[d.cr.Lo:d.cr.Hi])
	}
	return nil
}

type diReLU struct{ out core.DistTensor }

func (d *diReLU) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	kernels.ReLUForward(ins[0].Local, d.out.Local)
	return d.out
}
func (d *diReLU) load(*Checkpoint, string) error { return nil }

type diMaxPool struct {
	spec Spec
	out  core.DistTensor
}

func (d *diMaxPool) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	kernels.MaxPoolForward(ins[0].Local, d.out.Local, d.spec.Geom.K, d.spec.Geom.S, d.spec.Geom.Pad, nil)
	return d.out
}
func (d *diMaxPool) load(*Checkpoint, string) error { return nil }

type diGAP struct{ out core.DistTensor }

func (d *diGAP) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	kernels.GlobalAvgPoolForward(ins[0].Local, d.out.Local)
	return d.out
}
func (d *diGAP) load(*Checkpoint, string) error { return nil }

type diAdd struct{ out core.DistTensor }

func (d *diAdd) forward(ctx *core.Ctx, ins [2]core.DistTensor) core.DistTensor {
	kernels.Add(ins[0].Local, ins[1].Local, d.out.Local)
	return d.out
}
func (d *diAdd) load(*Checkpoint, string) error { return nil }
