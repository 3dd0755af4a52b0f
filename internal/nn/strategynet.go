package nn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// StrategyNet executes an architecture with a *per-layer* parallel
// execution Placement — the output of the Section V-C optimizer. Each layer
// runs under its own 4-axis grid {PN, PC, PH, PW}: sample x channel x
// spatial parallelism, with convolutions under channel-split grids choosing
// between the channel- and filter-parallel formulations of Section III-D
// via Placement.Split. Whenever adjacent layers' distributions differ, the
// data is shuffled with an all-to-all in forward propagation and shuffled
// back in backpropagation (Section III-C) — including remaps between
// channel-partitioned and channel-replicated placements. All grids must
// cover the same communicator.
type StrategyNet struct {
	Arch       *Arch
	Placements []dist.Placement // per-layer placement (normalized)
	Dists      []dist.Dist      // per-layer activation distribution
	ShapeOf    []Shape
	ctxs       []*core.Ctx // one per layer (contexts shared per distinct grid)
	layers     []distLayer
	outs       []core.DistTensor
	grads      []core.DistTensor
	world      *core.Ctx // context of the first layer's grid (for losses)
}

// NewStrategyNet instantiates the network for this rank. placements must
// have one entry per spec; every grid must have base.C.Size() processors.
// Weight initialization matches NewSeqNet/NewDistNet for the same seed:
// channel/filter-parallel convolutions hold the matching slice of the
// replicated He-initialized weight tensor, so any placement of the same
// architecture starts from the same global parameters.
func NewStrategyNet(base *core.Ctx, arch *Arch, n int, seed int64, placements []dist.Placement) (*StrategyNet, error) {
	if len(placements) != len(arch.Specs) {
		return nil, fmt.Errorf("nn: %d placements for %d layers", len(placements), len(arch.Specs))
	}
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	pls := make([]dist.Placement, len(placements))
	for i, p := range placements {
		pls[i] = p.Norm()
	}
	net := &StrategyNet{Arch: arch, Placements: pls, ShapeOf: shapes}
	// One context per distinct grid, tag spaces disjoint by construction:
	// each context gets a dedicated tag window.
	ctxByGrid := map[dist.Grid]*core.Ctx{}
	next := 0
	ctxOf := func(g dist.Grid) *core.Ctx {
		if ctx, ok := ctxByGrid[g]; ok {
			return ctx
		}
		if g.Size() != base.C.Size() {
			panic(fmt.Sprintf("nn: grid %v does not cover the %d-rank communicator", g, base.C.Size()))
		}
		ctx := core.NewCtxAt(base.C, g, next*4096)
		next++
		ctxByGrid[g] = ctx
		return ctx
	}

	net.Dists = make([]dist.Dist, len(arch.Specs))
	net.ctxs = make([]*core.Ctx, len(arch.Specs))
	for i, s := range arch.Specs {
		sh := shapes[i]
		pl := pls[i]
		g := pl.Grid
		d := dist.Dist{Grid: g, N: n, C: sh.C, H: sh.H, W: sh.W}
		if s.Kind == KindGlobalAvgPool {
			d.H, d.W = g.PH, g.PW
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %v", i, s.Name, err)
		}
		if s.Kind == KindConv && g.ChannelWays() > 1 && pl.Split == dist.SplitNone {
			return nil, fmt.Errorf("nn: layer %d (%s): channel-split grid %v requires SplitChannel or SplitFilter", i, s.Name, g)
		}
		net.Dists[i] = d
		net.ctxs[i] = ctxOf(g)
	}
	net.world = net.ctxs[0]

	for i, s := range arch.Specs {
		ctx := net.ctxs[i]
		pl := pls[i]
		var inD dist.Dist
		var inShape Shape
		if len(s.Parents) > 0 {
			inShape = shapes[s.Parents[0]]
			// The layer consumes its input under its own grid.
			inD = dist.Dist{Grid: pl.Grid, N: n, C: inShape.C, H: inShape.H, W: inShape.W}
			if err := inD.Validate(); err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s) input: %v", i, s.Name, err)
			}
		}
		switch s.Kind {
		case KindInput:
			net.layers = append(net.layers, &distInput{})
		case KindConv:
			fanIn := inShape.C * s.Geom.K * s.Geom.K
			switch pl.Split {
			case dist.SplitChannel:
				l := core.NewChannelParallelConv(ctx, inD, s.F, s.Geom, s.Bias)
				loadWeightSlice(l.W, s.F, inShape.C, s.Geom.K, seed+int64(i), fanIn,
					dist.Range{Lo: 0, Hi: s.F}, l.CRange)
				net.layers = append(net.layers, &distChanConv{l: l})
			case dist.SplitFilter:
				l := core.NewFilterParallelConv(ctx, inD, s.F, s.Geom, s.Bias)
				loadWeightSlice(l.W, s.F, inShape.C, s.Geom.K, seed+int64(i), fanIn,
					l.FRange, dist.Range{Lo: 0, Hi: inShape.C})
				net.layers = append(net.layers, &distFilterConv{l: l})
			default:
				l := core.NewConv(ctx, inD, s.F, s.Geom, s.Bias)
				l.W.FillRandN(seed+int64(i), heStd(fanIn))
				net.layers = append(net.layers, &distConv{l: l})
			}
		case KindBatchNorm:
			net.layers = append(net.layers, &distBN{l: core.NewBatchNorm(ctx, inD, core.BatchNormGlobal)})
		case KindReLU:
			net.layers = append(net.layers, &distReLU{l: core.NewReLU(inD)})
		case KindMaxPool:
			net.layers = append(net.layers, &distMaxPool{l: core.NewMaxPool(ctx, inD, s.Geom)})
		case KindGlobalAvgPool:
			net.layers = append(net.layers, &distGAP{l: core.NewGlobalAvgPool(ctx, inD)})
		case KindAdd:
			net.layers = append(net.layers, &distAdd{l: core.NewAdd(net.Dists[i])})
		default:
			return nil, fmt.Errorf("nn: unsupported kind %v", s.Kind)
		}
	}
	return net, nil
}

// loadWeightSlice fills w with the (fRange, cRange) slice of the full
// He-initialized [f, c, k, k] weight tensor the sequential net would draw,
// so sharded and replicated placements start from identical parameters.
func loadWeightSlice(w *tensor.Tensor, f, c, k int, seed int64, fanIn int, fRange, cRange dist.Range) {
	full := tensor.New(f, c, k, k)
	full.FillRandN(seed, heStd(fanIn))
	w.InsertRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{fRange.Len(), cRange.Len(), k, k}},
		full.ExtractRegion(tensor.Region{
			Off:  []int{fRange.Lo, cRange.Lo, 0, 0},
			Size: []int{fRange.Len(), cRange.Len(), k, k},
		}))
}

// InputDist returns the distribution the input must arrive in (the first
// layer's grid).
func (net *StrategyNet) InputDist() dist.Dist { return net.Dists[0] }

// OutputDist returns the final layer's distribution.
func (net *StrategyNet) OutputDist() dist.Dist { return net.Dists[len(net.Dists)-1] }

// OutputCtx returns the context of the final layer (for loss reductions).
func (net *StrategyNet) OutputCtx() *core.Ctx { return net.ctxs[len(net.ctxs)-1] }

// Forward runs the DAG, shuffling activations whenever a child layer uses a
// different distribution than its parent produced.
func (net *StrategyNet) Forward(x core.DistTensor) core.DistTensor {
	net.outs = make([]core.DistTensor, len(net.layers))
	for i, l := range net.layers {
		spec := net.Arch.Specs[i]
		ins := make([]core.DistTensor, len(spec.Parents))
		for j, p := range spec.Parents {
			ins[j] = net.shuffleTo(net.outs[p], net.Placements[i].Grid)
		}
		if spec.Kind == KindInput {
			ins = []core.DistTensor{x}
		}
		net.outs[i] = l.forward(net.ctxs[i], ins)
	}
	return net.outs[len(net.outs)-1]
}

// Backward propagates the loss gradient, shuffling error signals back
// across distribution changes (the backward shuffle of Section III-C).
func (net *StrategyNet) Backward(dLast core.DistTensor) {
	net.grads = make([]core.DistTensor, len(net.layers))
	net.grads[len(net.layers)-1] = dLast
	for i := len(net.layers) - 1; i >= 0; i-- {
		g := net.grads[i]
		if g.Local == nil {
			g = core.NewDistTensor(net.Dists[i], net.ctxs[i].Rank)
		}
		parentGrads := net.layers[i].backward(net.ctxs[i], g)
		for j, p := range net.Arch.Specs[i].Parents {
			// parentGrads[j] lives under this layer's grid; return it to the
			// parent's grid before accumulating.
			pg := net.shuffleTo(parentGrads[j], net.Placements[p].Grid)
			if net.grads[p].Local == nil {
				net.grads[p] = pg
			} else {
				net.grads[p].Local.AddScaled(pg.Local, 1)
			}
		}
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
// filter-parallel ones (identical across ctx.ChanPeers after the gradient
// reductions, so per-rank SGD keeps the copies in lockstep).
func (net *StrategyNet) Params() []Param {
	var ps []Param
	for i, l := range net.layers {
		ps = append(ps, l.params(net.Arch.Specs[i].Name)...)
	}
	return ps
}

// distChanConv adapts core.ChannelParallelConv to the distributed-layer
// interface.
type distChanConv struct{ l *core.ChannelParallelConv }

func (d *distChanConv) forward(ctx *core.Ctx, ins []core.DistTensor) core.DistTensor {
	return d.l.Forward(ctx, ins[0])
}

func (d *distChanConv) backward(ctx *core.Ctx, dy core.DistTensor) []core.DistTensor {
	return []core.DistTensor{d.l.Backward(ctx, dy)}
}

func (d *distChanConv) params(name string) []Param {
	ps := []Param{{Name: name + ".w", W: d.l.W.Data(), G: d.l.DW.Data()}}
	if d.l.Bias != nil {
		ps = append(ps, Param{Name: name + ".b", W: d.l.Bias, G: d.l.DBias})
	}
	return ps
}

// distFilterConv adapts core.FilterParallelConv to the distributed-layer
// interface.
type distFilterConv struct{ l *core.FilterParallelConv }

func (d *distFilterConv) forward(ctx *core.Ctx, ins []core.DistTensor) core.DistTensor {
	return d.l.Forward(ctx, ins[0])
}

func (d *distFilterConv) backward(ctx *core.Ctx, dy core.DistTensor) []core.DistTensor {
	return []core.DistTensor{d.l.Backward(ctx, dy)}
}

func (d *distFilterConv) params(name string) []Param {
	ps := []Param{{Name: name + ".w", W: d.l.W.Data(), G: d.l.DW.Data()}}
	if d.l.Bias != nil {
		ps = append(ps, Param{Name: name + ".b", W: d.l.Bias, G: d.l.DBias})
	}
	return ps
}
