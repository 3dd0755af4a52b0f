package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
)

// MaxPool is a distributed max-pooling layer. On a grid that splits H or W,
// Forward needs the same halo exchange as convolution, and backward scatters
// through the recorded argmax positions into the halo-extended buffer and
// reverse-exchanges boundary contributions back to their owners; otherwise
// it pools and scatters the local shard directly.
//
// A forward-only layer records no argmax, so it runs the kernel's inference
// fast path, and needs whole spatial dimensions; its Backward panics. The
// output, error signal and halo buffer are owned by the layer, allocated on
// first use and overwritten by the next step. Forward takes n ≤ InDist.N
// samples (the whole batch on a grid that splits H or W), pools only those,
// and returns the first n samples of its output.
type MaxPool struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist

	forwardOnly bool
	fwdPlan     *HaloPlan // nil unless the grid splits H or W
	tag         int

	argmax []int32
	y, dx  Owned
	// ext is the halo-extended input in Forward, then Backward's scatter
	// target.
	ext Ext
}

// NewMaxPool constructs a distributed max-pooling layer.
func NewMaxPool(ctx *Ctx, inDist dist.Dist, geom dist.ConvGeom, forwardOnly bool) *MaxPool {
	outH, outW := geom.OutSize(inDist.H), geom.OutSize(inDist.W)
	halo := inDist.Grid.SpatialWays() > 1
	switch {
	case outH < inDist.Grid.PH || outW < inDist.Grid.PW:
		panic(fmt.Sprintf("core: pool output %dx%d too small for grid %v", outH, outW, inDist.Grid))
	case forwardOnly && halo:
		panic(fmt.Sprintf("core: forward-only pool requires whole spatial dimensions, got grid %v", inDist.Grid))
	}
	l := &MaxPool{
		Geom:        geom,
		InDist:      inDist,
		OutDist:     dist.Dist{Grid: inDist.Grid, N: inDist.N, C: inDist.C, H: outH, W: outW},
		forwardOnly: forwardOnly,
		tag:         ctx.AllocTags(4),
	}
	if halo {
		l.fwdPlan = forwardPlan(inDist, ctx.Rank, geom, outH, outW)
	}
	return l
}

// Forward returns the local pooled shard, which the layer owns.
func (l *MaxPool) Forward(ctx *Ctx, x DistTensor) DistTensor {
	y := l.y.Rows(l.OutDist, ctx.Rank, batchOf(x, l.InDist, "pool", l.fwdPlan != nil))
	if l.argmax == nil && !l.forwardOnly {
		l.argmax = make([]int32, l.y.Rows(l.OutDist, ctx.Rank, l.OutDist.N).Local.Size())
	}
	g := l.Geom
	if l.fwdPlan == nil {
		kernels.MaxPoolForward(x.Local, y.Local, g.K, g.S, g.Pad, l.argmax)
		return y
	}
	if l.ext.T == nil {
		l.ext = l.fwdPlan.NewExt()
	}
	l.fwdPlan.fillOwned(l.ext, x.Local)
	l.fwdPlan.RunInto(ctx, x.Local, l.ext, l.tag)
	_, _, outH, outW := l.OutDist.Block(ctx.Rank)
	kernels.MaxPoolForwardRegion(l.ext.T, y.Local, g.K, g.S, g.Pad,
		l.ext.HLo, l.ext.WLo, outH.Lo, outW.Lo, l.InDist.H, l.InDist.W, l.argmax)
	return y
}

// Backward scatters dy through the argmax indices, and on a spatially
// split grid reverse-exchanges boundary contributions (windows spanning a
// partition boundary scatter into halo cells owned by a neighbor).
func (l *MaxPool) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.forwardOnly {
		panic("core: Backward on a forward-only MaxPool")
	}
	dx := l.dx.Rows(l.InDist, ctx.Rank, dy.Dist.N)
	if l.fwdPlan == nil {
		kernels.MaxPoolBackward(dy.Local, l.argmax, dx.Local)
		return dx
	}
	kernels.MaxPoolBackward(dy.Local, l.argmax, l.ext.T)
	l.fwdPlan.RunReverse(ctx, l.ext, dx.Local, l.tag+2)
	return dx
}

// GlobalAvgPool averages each channel's full spatial plane: x [N,C,H,W] ->
// y [N,C,1,1]. Under spatial parallelism each rank averages its shard and an
// allreduce over the spatial group completes the sum; the result is
// replicated within the group, so the output distribution collapses the
// spatial grid dimensions.
//
// Training sums each plane in float64 and scales after the reduction. A
// forward-only layer runs kernels.GlobalAvgPoolForward, the float32 sum
// and divide the inference engines share, and needs whole spatial
// dimensions; its Backward panics. The output and error signal are owned
// by the layer, allocated on first use and overwritten by the next step.
// Forward takes n ≤ InDist.N samples, averages only those, and returns the
// first n samples of its output.
type GlobalAvgPool struct {
	InDist  dist.Dist
	OutDist dist.Dist

	forwardOnly bool
	y, dx       Owned
}

// NewGlobalAvgPool constructs the layer. The output is distributed over a
// degenerate spatial grid (PH=PW=1) replicated across this rank's spatial
// group: every rank of the group holds the same [nLoc, C, 1, 1] tensor.
func NewGlobalAvgPool(ctx *Ctx, inDist dist.Dist, forwardOnly bool) *GlobalAvgPool {
	if forwardOnly && inDist.Grid.SpatialWays() > 1 {
		panic(fmt.Sprintf("core: forward-only global pool requires whole spatial dimensions, got grid %v", inDist.Grid))
	}
	out := dist.Dist{Grid: inDist.Grid, N: inDist.N, C: inDist.C, H: inDist.Grid.PH, W: inDist.Grid.PW}
	return &GlobalAvgPool{InDist: inDist, OutDist: out, forwardOnly: forwardOnly}
}

// Forward computes the per-channel spatial mean. The OutDist trick: global
// output extent equals the grid extents, so every rank owns exactly a 1x1
// block and holds the replicated mean there.
func (l *GlobalAvgPool) Forward(ctx *Ctx, x DistTensor) DistTensor {
	y := l.y.Rows(l.OutDist, ctx.Rank, x.Dist.N)
	if l.forwardOnly {
		kernels.GlobalAvgPoolForward(x.Local, y.Local)
		return y
	}
	// The plane sums, reduced and scaled in place.
	sums := y.Local.Data()
	xd := x.Local.Data()
	plane := x.Local.Dim(2) * x.Local.Dim(3)
	for i := range sums {
		var s float64
		for _, v := range xd[i*plane : (i+1)*plane] {
			s += float64(v)
		}
		sums[i] = float32(s)
	}
	if ctx.Spatial.Size() > 1 {
		ctx.Spatial.Allreduce(sums, comm.OpSum)
	}
	scale := 1 / float32(l.InDist.H*l.InDist.W)
	for i := range sums {
		sums[i] *= scale
	}
	return y
}

// Backward spreads dy/(H*W) uniformly over the local spatial shard.
func (l *GlobalAvgPool) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.forwardOnly {
		panic("core: Backward on a forward-only GlobalAvgPool")
	}
	dx := l.dx.Rows(l.InDist, ctx.Rank, dy.Dist.N)
	plane := dx.Local.Dim(2) * dx.Local.Dim(3)
	scale := 1 / float32(l.InDist.H*l.InDist.W)
	dxd := dx.Local.Data()
	for i, v := range dy.Local.Data() {
		g := v * scale
		row := dxd[i*plane : (i+1)*plane]
		for j := range row {
			row[j] = g
		}
	}
	return dx
}
