package nn

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// StrategyNet is the distributed training executor. It runs an architecture
// with a *per-layer* parallel execution Placement — the output of the
// Section V-C optimizer. Each layer runs under its own 4-axis grid
// {PN, PC, PH, PW}: sample x channel x spatial parallelism, with
// convolutions under channel-split grids choosing between the channel- and
// filter-parallel formulations of Section III-D via Placement.Split.
// Whenever adjacent layers' distributions differ, the data is shuffled with
// an all-to-all in forward propagation and shuffled back in backpropagation
// (Section III-C) — including remaps between channel-partitioned and
// channel-replicated placements. All grids must cover the same
// communicator. The uniform case, one grid for every layer, is NewDistNet.
//
// Every rank constructs its own StrategyNet (collectively, in the same
// order) and runs it SPMD-style. A forward-only StrategyNet (the body of
// both serving engines: DistInferNet on a replica group, InferNet on one
// rank) builds forward-only convolutions, pooling and inference batch
// normalization. It holds parameters, so checkpoints restore into it, but
// no gradients, and it folds each batch normalization, ReLU and residual
// add it can into the layer producing its input (fuse).
type StrategyNet struct {
	Arch       *Arch
	Placements []dist.Placement // per-layer placement (normalized)
	Dists      []dist.Dist      // per-layer activation distribution
	ShapeOf    []Shape

	// Grad selects gradient-reduction scheduling for the convolutions whose
	// Split is SplitNone (weights replicated on every rank): GradSync
	// (default) blocks inside each layer's backward; GradOverlap hides the
	// reductions behind the remaining backward compute via bucketed
	// non-blocking allreduces. Both produce bitwise-identical gradients
	// (the reductions are rank-order stable). Convolutions with a channel
	// or filter split reduce over their ChanPeers synchronously.
	Grad GradMode
	plan *gradPlan

	ops   []op
	outs  []core.DistTensor
	grads []core.DistTensor
	world *core.Ctx // the caller's context: shuffles and gradient buckets run on world.C

	// trace, when set, receives one span per layer of each Forward,
	// stamped with traceID.
	trace   *obs.Ring
	traceID uint64
}

// layer is the Forward/Backward signature every core layer but Add shares.
type layer interface {
	Forward(ctx *core.Ctx, x core.DistTensor) core.DistTensor
	Backward(ctx *core.Ctx, dy core.DistTensor) core.DistTensor
}

// op is one layer of a StrategyNet: the core layer under the context of
// its grid (l is nil for the input and for a layer fuse folded into its
// parent, and Add is the one two-input kind), plus the parameters it
// holds. conv is set for a convolution, bn for a batch normalization,
// folded or not.
type op struct {
	ctx    *core.Ctx
	l      layer
	add    *core.Add
	conv   *core.Conv
	bn     *core.BatchNorm
	params []Param
}

// defers reports whether the op is a convolution whose gradient allreduce
// the overlap engine may take over: one with replicated weights, reduced
// over every rank. Its DeferAllreduce is the switch, its params' gradients
// the deferred slices.
func (o *op) defers() bool { return o.conv != nil && o.conv.Split() == dist.SplitNone }

// forward runs the op on its inputs; a convolution records its kernel
// phases on tr.
func (o *op) forward(in *[2]core.DistTensor, tr *obs.Ring, id uint64) core.DistTensor {
	switch {
	case o.add != nil:
		return o.add.Forward(o.ctx, in[0], in[1])
	case o.conv != nil:
		return o.conv.ForwardTraced(o.ctx, in[0], tr, id)
	}
	return o.l.Forward(o.ctx, in[0])
}

// backward returns the error signals for the op's (at most two) parents.
func (o *op) backward(dy core.DistTensor) (da, db core.DistTensor) {
	switch {
	case o.add != nil:
		return o.add.Backward(o.ctx, dy)
	case o.l == nil:
		return da, db
	}
	return o.l.Backward(o.ctx, dy), db
}

// NewDistNet instantiates the architecture for this rank with every layer
// on grid ctx.Grid and a global batch size of n: hybrid sample/spatial
// parallelism with the same data decomposition for every layer, matching
// the configurations evaluated in Section VI-B. Weight initialization
// matches NewSeqNet given the same seed, so a distributed run is directly
// comparable to a sequential one.
func NewDistNet(ctx *core.Ctx, arch *Arch, n int, seed int64) (*StrategyNet, error) {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(ctx.Grid)
	}
	return NewStrategyNet(ctx, arch, n, seed, pls)
}

// NewStrategyNet instantiates the network for this rank. placements must
// have one entry per spec; every grid must have base.C.Size() processors.
// Weight initialization matches NewSeqNet/NewDistNet for the same seed:
// channel/filter-parallel convolutions hold the matching slice of the
// replicated He-initialized weight tensor, so any placement of the same
// architecture starts from the same global parameters.
func NewStrategyNet(base *core.Ctx, arch *Arch, n int, seed int64, placements []dist.Placement) (*StrategyNet, error) {
	return newStrategyNet(base, arch, n, seed, placements, false, nil)
}

// newStrategyNet is NewStrategyNet, building forward-only layers when
// forwardOnly is set. A forward-only net given src (one of the same
// architecture and placements) aliases src's weights, batchnorm tensors and
// prepacks instead of drawing its own.
func newStrategyNet(base *core.Ctx, arch *Arch, n int, seed int64, placements []dist.Placement, forwardOnly bool, src *StrategyNet) (*StrategyNet, error) {
	if len(placements) != len(arch.Specs) {
		return nil, fmt.Errorf("nn: %d placements for %d layers", len(placements), len(arch.Specs))
	}
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	nl := len(arch.Specs)
	net := &StrategyNet{
		Arch: arch, ShapeOf: shapes, world: base,
		Placements: make([]dist.Placement, nl),
		Dists:      make([]dist.Dist, nl),
		ops:        make([]op, nl),
		outs:       make([]core.DistTensor, nl),
		grads:      make([]core.DistTensor, nl),
	}
	for i, s := range arch.Specs {
		sh := shapes[i]
		pl := placements[i].Norm()
		g := pl.Grid
		d := dist.Dist{Grid: g, N: n, C: sh.C, H: sh.H, W: sh.W}
		if s.Kind == KindGlobalAvgPool {
			// Replicated within the spatial group; see core.GlobalAvgPool.
			d.H, d.W = g.PH, g.PW
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %v", i, s.Name, err)
		}
		if g.Size() != base.C.Size() {
			return nil, fmt.Errorf("nn: layer %d (%s): grid %v does not cover the %d-rank communicator", i, s.Name, g, base.C.Size())
		}
		if s.Kind == KindConv && g.ChannelWays() > 1 && pl.Split == dist.SplitNone {
			return nil, fmt.Errorf("nn: layer %d (%s): channel-split grid %v requires SplitChannel or SplitFilter", i, s.Name, g)
		}
		net.Placements[i] = pl
		net.Dists[i] = d
	}

	// Layers on the caller's grid use the caller's context; every other
	// distinct grid gets one context (collective over base.C) with a tag
	// window reserved from base, so tag spaces are disjoint by construction.
	ctxByGrid := map[dist.Grid]*core.Ctx{base.Grid.Norm(): base}
	for i, s := range arch.Specs {
		pl := net.Placements[i]
		ctx, ok := ctxByGrid[pl.Grid]
		if !ok {
			ctx = core.NewCtxAt(base.C, pl.Grid, base.AllocTags(4096))
			ctxByGrid[pl.Grid] = ctx
		}
		o := &net.ops[i]
		o.ctx = ctx
		var inD dist.Dist
		if len(s.Parents) > 0 {
			// The layer consumes its parent's tensor under its own grid.
			pd := net.Dists[s.Parents[0]]
			inD = dist.Dist{Grid: pl.Grid, N: n, C: pd.C, H: pd.H, W: pd.W}
			if err := inD.Validate(); err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s) input: %v", i, s.Name, err)
			}
		}
		switch s.Kind {
		case KindInput:
		case KindConv:
			l := core.NewPlacedConv(ctx, inD, s.F, s.Geom, s.Bias, pl.Split, forwardOnly)
			if src != nil {
				l.ShareWeights(src.ops[i].conv)
			} else {
				initConv(l, seed+int64(i))
			}
			o.l, o.conv = l, l
			o.params = []Param{{Name: s.Name + ".w", W: l.W.Data()}}
			if l.Bias != nil {
				o.params = append(o.params, Param{Name: s.Name + ".b", W: l.Bias, G: l.DBias})
			}
			if forwardOnly {
				break
			}
			o.params[0].G = l.DW.Data()
			if o.defers() && base.C.Size() > 1 {
				// Replicated over every rank: shard the update of each
				// tensor the overlap engine reduces in place.
				for j := range o.params {
					if n := len(o.params[j].W); n >= fuseTargetWords {
						lo, hi := base.C.OwnedChunk(n)
						o.params[j].shard = &paramShard{c: base.C, lo: lo, hi: hi}
					}
				}
			}
		case KindBatchNorm:
			var l *core.BatchNorm
			if forwardOnly {
				l = core.NewBatchNormInference(ctx, inD)
			} else {
				l = core.NewBatchNorm(ctx, inD, core.BatchNormGlobal)
			}
			if src != nil {
				b := src.ops[i].bn
				l.Gamma, l.Beta, l.RunMean, l.RunVar = b.Gamma, b.Beta, b.RunMean, b.RunVar
			}
			o.l, o.bn = l, l
			o.params = []Param{
				{Name: s.Name + ".gamma", W: l.Gamma, G: l.DGamma},
				{Name: s.Name + ".beta", W: l.Beta, G: l.DBeta},
			}
		case KindReLU:
			o.l = core.NewReLU(inD)
		case KindMaxPool:
			o.l = core.NewMaxPool(ctx, inD, s.Geom, forwardOnly)
		case KindGlobalAvgPool:
			o.l = core.NewGlobalAvgPool(ctx, inD, forwardOnly)
		case KindAdd:
			o.add = core.NewAdd(net.Dists[i])
		default:
			return nil, fmt.Errorf("nn: unsupported kind %v", s.Kind)
		}
	}
	if forwardOnly {
		net.fuse()
	}
	return net, nil
}

// fuse is the forward-only fusion pass over the op table. A conv folds
// its sole consumer if that is a batchnorm, then the batchnorm's sole
// consumer if that is a ReLU, into its store epilogue, or else a sole
// ReLU consumer; an add applies a sole ReLU consumer in the same pass. Each
// fold is bitwise the separate passes. A folded op keeps its parameters
// but passes its input, the fused output, through. Nothing folds into a
// channel-split conv, which adds its bias after the reduce-scatter, or
// across a change of grid.
func (net *StrategyNet) fuse() {
	specs := net.Arch.Specs
	uses, last := make([]int, len(specs)), make([]int, len(specs))
	for i, s := range specs {
		for _, p := range s.Parents {
			uses[p]++
			last[p] = i
		}
	}
	// next returns i's sole consumer if it is a kind-k layer on i's grid,
	// else -1.
	next := func(i int, k Kind) int {
		if j := last[i]; uses[i] == 1 && specs[j].Kind == k && net.Placements[j].Grid == net.Placements[i].Grid {
			return j
		}
		return -1
	}
	for i := range net.ops {
		o, r := &net.ops[i], next(i, KindReLU)
		switch b := next(i, KindBatchNorm); {
		case o.add != nil && r >= 0:
			o.add.FuseReLU()
		case o.conv == nil || o.conv.Split() == dist.SplitChannel:
			continue
		case b >= 0:
			r = next(b, KindReLU)
			o.conv.Fuse(net.ops[b].bn, r >= 0)
			net.ops[b].l = nil
		default:
			o.conv.Fuse(nil, r >= 0)
		}
		if r >= 0 {
			net.ops[r].l = nil
		}
	}
}

// heStd is the He-initialization standard deviation sqrt(2/fanIn); it must
// match newSeqConv so sequential and distributed nets start identically.
func heStd(fanIn int) float32 {
	return float32(math.Sqrt(2.0 / float64(fanIn)))
}

// initConv He-initializes l with its slice of the global weights the
// sequential net draws for seed: the RNG stream depends only on (seed,
// fan-in), so every placement of a layer starts from the same global
// parameters.
func initConv(l *core.Conv, seed int64) {
	f, c, k := l.OutDist.C, l.InDist.C, l.Geom.K
	w := tensor.New(f, c, k, k)
	w.FillRandN(seed, heStd(c*k*k))
	loadConv(l, w.Data(), nil)
}

// loadConv copies this rank's slice of the global [F, C, K, K] weights w
// and [F] bias b (nil: leave the bias as it is) into l, so every placement
// of a layer holds parts of the same global parameters.
func loadConv(l *core.Conv, w, b []float32) {
	fr, cr := l.WeightRanges()
	c, kk := l.InDist.C, l.Geom.K*l.Geom.K
	row := cr.Len() * kk
	dst := l.W.Data()
	for f := fr.Lo; f < fr.Hi; f++ {
		copy(dst[(f-fr.Lo)*row:(f-fr.Lo+1)*row], w[(f*c+cr.Lo)*kk:(f*c+cr.Hi)*kk])
	}
	if b != nil {
		copy(l.Bias, b[l.FRange.Lo:l.FRange.Hi])
	}
	// A forward-only layer may have served, and prepacked, the old weights
	// and fused batchnorm values; loadShards restores both before the next
	// Forward repacks.
	l.InvalidatePacked()
}

// loadShards copies this rank's block of every full tensor in ck into the
// layers: each convolution's WeightRanges slice of the weights and its
// filter block of the bias, and each batch normalization's channel block of
// its parameters and running statistics.
func (net *StrategyNet) loadShards(ck *Checkpoint) error {
	if ck.Arch != net.Arch.Name {
		return fmt.Errorf("nn: checkpoint is for architecture %q, not %q", ck.Arch, net.Arch.Name)
	}
	for i, o := range net.ops {
		name := net.Arch.Specs[i].Name
		var err error
		if l := o.conv; l != nil {
			f, c, k := l.OutDist.C, l.InDist.C, l.Geom.K
			var w, b []float32
			w, err = ckEntry(ck.Params, name+".w", "parameter", f*c*k*k)
			if err == nil && l.Bias != nil {
				b, err = ckEntry(ck.Params, name+".b", "parameter", f)
			}
			if err == nil {
				loadConv(l, w, b)
			}
		}
		if l := o.bn; l != nil {
			cr := l.Dist.RangeC(o.ctx.Rank)
			for _, e := range []struct {
				m      map[string][]float32
				suffix string
				kind   string
				dst    []float32
			}{
				{ck.Params, ".gamma", "parameter", l.Gamma},
				{ck.Params, ".beta", "parameter", l.Beta},
				{ck.Buffers, ".running_mean", "buffer", l.RunMean},
				{ck.Buffers, ".running_var", "buffer", l.RunVar},
			} {
				var v []float32
				if v, err = ckEntry(e.m, name+e.suffix, e.kind, l.Dist.C); err != nil {
					break
				}
				copy(e.dst, v[cr.Lo:cr.Hi])
			}
		}
		if err != nil {
			return fmt.Errorf("nn: layer %s: %w", name, err)
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

// InputDist returns the distribution the input must arrive in (the first
// layer's grid).
func (net *StrategyNet) InputDist() dist.Dist { return net.Dists[0] }

// OutputDist returns the final layer's distribution.
func (net *StrategyNet) OutputDist() dist.Dist { return net.Dists[len(net.Dists)-1] }

// OutputCtx returns the context of the final layer (for loss reductions).
func (net *StrategyNet) OutputCtx() *core.Ctx { return net.ops[len(net.ops)-1].ctx }

// Forward runs the DAG on this rank's shard, shuffling activations whenever
// a child layer uses a different distribution than its parent produced. The
// result is the last layer's own output, overwritten by the next Forward.
// A forward-only net also takes x cut to fewer samples than it was built
// for; every layer then computes only those.
func (net *StrategyNet) Forward(x core.DistTensor) core.DistTensor {
	for i := range net.ops {
		o, spec := &net.ops[i], &net.Arch.Specs[i]
		if o.l == nil && o.add == nil {
			// The input, or a layer fuse folded into its parent (on its grid).
			net.outs[i] = x
			if spec.Kind != KindInput {
				net.outs[i] = net.outs[spec.Parents[0]]
			}
			continue
		}
		var in [2]core.DistTensor
		for j, p := range spec.Parents {
			if in[j] = net.outs[p]; in[j].Dist.Grid != net.Placements[i].Grid {
				in[j] = net.shuffleTo(in[j], net.Placements[i].Grid)
			}
		}
		var t int64
		if net.trace != nil {
			t = obs.Start()
		}
		net.outs[i] = o.forward(&in, net.trace, net.traceID)
		net.trace.Record(layerStage(spec.Kind), 0, net.traceID, t, int64(i))
	}
	return net.outs[len(net.outs)-1]
}

// Backward propagates the loss gradient, shuffling error signals back
// across distribution changes (the backward shuffle of Section III-C).
// Parameter gradients are reduced on return. Under GradOverlap the
// reductions of the convolutions whose Split is SplitNone run as
// non-blocking collectives concurrently with the shallower layers' backward
// and are drained before returning; a tensor whose update SGD shards is then
// reduced only on the chunk this rank owns, the only part SGD.Step reads.
//
// A parent with several children accumulates the other children's error
// signals into the tensor returned by the child whose Backward ran first,
// which is that layer's own buffer. That is safe because each layer's
// Backward runs once per step; Add returns two distinct buffers for the
// same reason.
func (net *StrategyNet) Backward(dLast core.DistTensor) {
	overlap := net.Grad != GradSync && net.world.C.Size() > 1
	for _, o := range net.ops {
		if o.defers() {
			o.conv.DeferAllreduce = overlap
		}
	}
	launch := overlap && net.Grad == GradOverlap
	if launch && net.plan == nil {
		net.plan = buildGradPlan(net.ops)
	}
	clear(net.grads)
	net.grads[len(net.grads)-1] = dLast
	for i := len(net.ops) - 1; i >= 0; i-- {
		g := net.grads[i]
		if g.Local == nil {
			g = core.NewDistTensor(net.Dists[i], net.world.Rank)
		}
		var pg [2]core.DistTensor
		pg[0], pg[1] = net.ops[i].backward(g)
		if launch {
			net.plan.launch(net.world.C, i)
		}
		for j, p := range net.Arch.Specs[i].Parents {
			// pg[j] lives under this layer's grid; return it to the
			// parent's grid before accumulating.
			d := net.shuffleTo(pg[j], net.Placements[p].Grid)
			if net.grads[p].Local == nil {
				net.grads[p] = d
			} else {
				net.grads[p].Local.AddScaled(d.Local, 1)
			}
		}
	}
	if launch {
		net.plan.drain()
	}
}

// shuffleTo redistributes t onto grid g (no-op when layouts already agree).
func (net *StrategyNet) shuffleTo(t core.DistTensor, g dist.Grid) core.DistTensor {
	dst := dist.Dist{Grid: g, N: t.Dist.N, C: t.Dist.C, H: t.Dist.H, W: t.Dist.W}
	if t.Dist.SameLayout(dst) {
		return t
	}
	return core.Redistribute(net.world, t, dst)
}

// Params returns the learnable parameters this rank holds: replicated
// tensors for SplitNone layers, this rank's weight shard for channel/
// filter-parallel ones. Gradients are identical across the ranks sharing a
// tensor after the backward reductions, so SGD keeps the copies in lockstep
// (Section III-A). On more than one rank, each large replicated conv
// tensor carries the chunk of its update this rank owns (see SGD); only
// that chunk of its gradient is guaranteed reduced.
func (net *StrategyNet) Params() []Param {
	var ps []Param
	for _, o := range net.ops {
		ps = append(ps, o.params...)
	}
	return ps
}

// layerStage maps a layer kind to its flight-recorder stage so traces
// separate conv time (which nests the gemm phases) from batchnorm and the
// cheap elementwise layers.
func layerStage(k Kind) obs.Stage {
	switch k {
	case KindConv:
		return obs.StageLayerConv
	case KindBatchNorm:
		return obs.StageLayerBN
	default:
		return obs.StageLayerOther
	}
}
