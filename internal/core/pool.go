package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// MaxPool is a distributed max-pooling layer. Forward needs the same halo
// exchange as convolution; backward scatters through the recorded argmax
// positions into the halo-extended buffer and reverse-exchanges boundary
// contributions back to their owners.
type MaxPool struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist

	fwdPlan *HaloPlan
	tag     int

	argmax []int32
	extGeo Ext // geometry (not data) of the forward ext buffer
}

// NewMaxPool constructs a distributed max-pooling layer.
func NewMaxPool(ctx *Ctx, inDist dist.Dist, geom dist.ConvGeom) *MaxPool {
	outH, outW := geom.OutSize(inDist.H), geom.OutSize(inDist.W)
	if outH < inDist.Grid.PH || outW < inDist.Grid.PW {
		panic(fmt.Sprintf("core: pool output %dx%d too small for grid %v", outH, outW, inDist.Grid))
	}
	l := &MaxPool{
		Geom:    geom,
		InDist:  inDist,
		OutDist: dist.Dist{Grid: inDist.Grid, N: inDist.N, C: inDist.C, H: outH, W: outW},
		tag:     ctx.AllocTags(4),
	}
	l.fwdPlan = forwardPlan(inDist, ctx.Rank, geom, outH, outW)
	return l
}

// Forward computes the local pooled shard.
func (l *MaxPool) Forward(ctx *Ctx, x DistTensor) DistTensor {
	if !x.Dist.SameLayout(l.InDist) {
		panic(fmt.Sprintf("core: pool input dist %v, want %v", x.Dist, l.InDist))
	}
	ext := l.fwdPlan.Run(ctx, x.Local, l.tag)
	y := NewDistTensor(l.OutDist, ctx.Rank)
	l.argmax = make([]int32, y.Local.Size())
	outH := l.OutDist.RangeH(ctx.Rank)
	outW := l.OutDist.RangeW(ctx.Rank)
	kernels.MaxPoolForwardRegion(ext.T, y.Local, l.Geom.K, l.Geom.S, l.Geom.Pad,
		ext.HLo, ext.WLo, outH.Lo, outW.Lo, l.InDist.H, l.InDist.W, l.argmax)
	l.extGeo = Ext{T: nil, HLo: ext.HLo, WLo: ext.WLo}
	l.extGeo.T = tensor.New(ext.T.Shape()...) // reuse as the scatter target
	return y
}

// Backward scatters dy through the argmax indices and reverse-exchanges
// boundary contributions (windows spanning a partition boundary scatter into
// halo cells owned by a neighbor).
func (l *MaxPool) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.argmax == nil {
		panic("core: pool Backward called before Forward")
	}
	dxExt := l.extGeo
	kernels.MaxPoolBackward(dy.Local, l.argmax, dxExt.T)
	dx := NewDistTensor(l.InDist, ctx.Rank)
	l.fwdPlan.RunReverse(ctx, dxExt, dx.Local, l.tag+2)
	l.argmax = nil
	l.extGeo = Ext{}
	return dx
}

// GlobalAvgPool averages each channel's full spatial plane: x [N,C,H,W] ->
// y [N,C,1,1]. Under spatial parallelism each rank averages its shard and an
// allreduce over the spatial group completes the sum; the result is
// replicated within the group, so the output distribution collapses the
// spatial grid dimensions.
type GlobalAvgPool struct {
	InDist  dist.Dist
	OutDist dist.Dist
}

// NewGlobalAvgPool constructs the layer. The output is distributed over a
// degenerate spatial grid (PH=PW=1) replicated across this rank's spatial
// group: every rank of the group holds the same [nLoc, C, 1, 1] tensor.
func NewGlobalAvgPool(ctx *Ctx, inDist dist.Dist) *GlobalAvgPool {
	out := dist.Dist{Grid: inDist.Grid, N: inDist.N, C: inDist.C, H: inDist.Grid.PH, W: inDist.Grid.PW}
	return &GlobalAvgPool{InDist: inDist, OutDist: out}
}

// Forward computes the per-channel spatial mean. The OutDist trick: global
// output extent equals the grid extents, so every rank owns exactly a 1x1
// block and holds the replicated mean there.
func (l *GlobalAvgPool) Forward(ctx *Ctx, x DistTensor) DistTensor {
	nLoc := x.Local.Dim(0)
	c := x.Local.Dim(1)
	sums := make([]float32, nLoc*c)
	xd := x.Local.Data()
	plane := x.Local.Dim(2) * x.Local.Dim(3)
	for i := 0; i < nLoc*c; i++ {
		var s float64
		for _, v := range xd[i*plane : (i+1)*plane] {
			s += float64(v)
		}
		sums[i] = float32(s)
	}
	if ctx.Spatial.Size() > 1 {
		ctx.Spatial.Allreduce(sums, comm.OpSum)
	}
	y := NewDistTensor(l.OutDist, ctx.Rank)
	scale := 1 / float32(l.InDist.H*l.InDist.W)
	for i, s := range sums {
		y.Local.Data()[i] = s * scale
	}
	return y
}

// Backward spreads dy/(H*W) uniformly over the local spatial shard.
func (l *GlobalAvgPool) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	dx := NewDistTensor(l.InDist, ctx.Rank)
	nLoc := dx.Local.Dim(0)
	c := dx.Local.Dim(1)
	plane := dx.Local.Dim(2) * dx.Local.Dim(3)
	scale := 1 / float32(l.InDist.H*l.InDist.W)
	dxd := dx.Local.Data()
	dyd := dy.Local.Data()
	for i := 0; i < nLoc*c; i++ {
		g := dyd[i] * scale
		row := dxd[i*plane : (i+1)*plane]
		for j := range row {
			row[j] = g
		}
	}
	return dx
}
