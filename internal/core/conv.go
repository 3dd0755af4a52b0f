package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Conv is a distributed 2-D convolution layer supporting sample, spatial,
// and hybrid sample/spatial parallelism (Section III-A). The weights (and
// bias) are replicated on every processor; activations are blocked over the
// processor grid. Forward and backward-data passes perform halo exchanges;
// the weight-gradient sum is completed with an allreduce over all
// processors.
type Conv struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist

	W     *tensor.Tensor // [F, C, K, K], replicated
	Bias  []float32      // optional, [F]
	DW    *tensor.Tensor
	DBias []float32

	// Algo selects the local convolution kernel (cuDNN algorithm analogue).
	Algo kernels.ConvAlgo
	// Overlap enables interior/boundary decomposition in forward propagation
	// and hiding the dy halo exchange under the filter-gradient computation
	// in backpropagation (Section IV-A).
	Overlap bool
	// DeferAllreduce leaves the dw/dbias allreduce to the caller (the
	// network runner overlaps it with other layers, Section V-B); when
	// false Backward completes gradients before returning.
	DeferAllreduce bool

	fwdPlan *HaloPlan
	bwdPlan *HaloPlan
	tag     int

	// Pre-bound proxy closures for the overlapped halo exchanges: the
	// exchange runs on the communicator's proxy engine (comm.Comm.Do)
	// instead of a goroutine spawned per layer call, and re-binding only
	// mutates these argument structs, so a warm overlapped step submits
	// with zero allocations.
	fwdExch, bwdExch exchangeOp

	// inference marks a forward-only layer (NewConvInference): no gradient
	// buffers exist, Backward panics, and the halo-extended input is
	// released at the end of Forward instead of being stashed.
	inference bool

	// ws supplies all transient buffers (halo-extended inputs, region
	// scratch); the layer owns it and reuses the storage across steps, so a
	// warm training step performs no layer-level allocations beyond its
	// output shards. Defaults to the process-wide kernels workspace.
	ws *kernels.Workspace

	xExt   Ext // forward input with halo, kept for backward-filter
	hasExt bool
}

// NewConv constructs a distributed convolution layer producing f filters
// from inputs distributed as inDist. bias=true adds a learnable bias.
func NewConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	l := newConv(ctx, inDist, f, geom, bias)
	l.DW = tensor.New(f, inDist.C, geom.K, geom.K)
	if bias {
		l.DBias = make([]float32, f)
	}
	l.bwdPlan = backwardPlan(l.OutDist, ctx.Rank, geom, inDist.H, inDist.W)
	return l
}

func newConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if inDist.Grid.ChannelWays() > 1 {
		panic(fmt.Sprintf("core: replicated-weight Conv cannot consume channel-partitioned input %v; use NewChannelParallelConv or NewFilterParallelConv", inDist))
	}
	outH, outW := geom.OutSize(inDist.H), geom.OutSize(inDist.W)
	if outH < inDist.Grid.PH || outW < inDist.Grid.PW {
		panic(fmt.Sprintf("core: output %dx%d too small for grid %v", outH, outW, inDist.Grid))
	}
	outDist := dist.Dist{Grid: inDist.Grid, N: inDist.N, C: f, H: outH, W: outW}
	l := &Conv{
		Geom:    geom,
		InDist:  inDist,
		OutDist: outDist,
		W:       tensor.New(f, inDist.C, geom.K, geom.K),
		Algo:    kernels.ConvAuto,
		Overlap: true,
		tag:     ctx.AllocTags(4),
		ws:      kernels.DefaultWorkspace(),
	}
	if bias {
		l.Bias = make([]float32, f)
	}
	// Only the forward halo plan is built here; NewConv adds the backward
	// plan, which a forward-only layer never needs.
	l.fwdPlan = forwardPlan(inDist, ctx.Rank, geom, outH, outW)
	return l
}

// exchangeOp carries one halo exchange onto the communication proxy: fn is
// bound to the struct once, and start only mutates the arguments before
// submitting, keeping the warm path allocation-free.
type exchangeOp struct {
	plan  *HaloPlan
	local *tensor.Tensor
	ext   Ext
	tag   int
	fn    func(*comm.Comm)
}

// start submits the exchange to ctx.C's proxy engine and returns its
// request handle; the caller overlaps compute and then Waits.
func (e *exchangeOp) start(ctx *Ctx, plan *HaloPlan, local *tensor.Tensor, ext Ext, tag int) *comm.Request {
	e.plan, e.local, e.ext, e.tag = plan, local, ext, tag
	if e.fn == nil {
		e.fn = e.run
	}
	return ctx.C.Do(e.fn)
}

func (e *exchangeOp) run(proxy *comm.Comm) {
	e.plan.RunIntoOn(proxy, e.local, e.ext, e.tag)
}

// Forward computes the local output shard, exchanging input halos with
// spatial neighbors. With Overlap, the halo exchange runs concurrently with
// the interior convolution and only the boundary waits for it.
func (l *Conv) Forward(ctx *Ctx, x DistTensor) DistTensor {
	if !x.Dist.SameLayout(l.InDist) {
		panic(fmt.Sprintf("core: conv input dist %v, want %v", x.Dist, l.InDist))
	}
	y := NewDistTensor(l.OutDist, ctx.Rank)
	plan := l.fwdPlan
	hasHalo := len(plan.recvW)+len(plan.recvH)+len(plan.sendW)+len(plan.sendH) > 0

	// Forward-only use (inference) never reaches Backward's release; recycle
	// the previous step's buffer here so those loops stay allocation-free.
	l.xExt.Release(l.ws)
	ext := plan.NewExtIn(l.ws)
	plan.fillOwned(ext, x.Local)
	if l.Overlap && hasHalo {
		req := l.fwdExch.start(ctx, plan, x.Local, ext, l.tag)
		intH, intW := l.interiorRange(ctx)
		l.convRegion(ext, y.Local, intH, intW)
		req.Wait()
		oh := l.localOutH(ctx)
		ow := l.localOutW(ctx)
		// Boundary: top and bottom full-width strips, then left/right
		// columns of the interior rows.
		for _, r := range []struct{ h, w dist.Range }{
			{dist.Range{Lo: 0, Hi: intH.Lo}, dist.Range{Lo: 0, Hi: ow}},
			{dist.Range{Lo: intH.Hi, Hi: oh}, dist.Range{Lo: 0, Hi: ow}},
			{intH, dist.Range{Lo: 0, Hi: intW.Lo}},
			{intH, dist.Range{Lo: intW.Hi, Hi: ow}},
		} {
			l.convRegion(ext, y.Local, r.h, r.w)
		}
	} else {
		if hasHalo {
			plan.RunInto(ctx, x.Local, ext, l.tag)
		}
		oh, ow := l.localOutH(ctx), l.localOutW(ctx)
		if plan.AlignH() == 0 && plan.AlignW() == 0 &&
			ext.T.Dim(2) == (oh-1)*l.Geom.S+l.Geom.K && ext.T.Dim(3) == (ow-1)*l.Geom.S+l.Geom.K {
			// Ext is exactly the required window: convolve it directly.
			kernels.ConvForward(ext.T, l.W, l.Bias, y.Local, l.Geom.S, 0, l.Algo)
		} else {
			l.convRegion(ext, y.Local, dist.Range{Lo: 0, Hi: oh}, dist.Range{Lo: 0, Hi: ow})
		}
	}
	if l.inference {
		// Nothing will ever read the stash; hand the halo buffer straight
		// back to the workspace.
		ext.Release(l.ws)
		return y
	}
	l.xExt = ext
	l.hasExt = true
	return y
}

// localOutH/localOutW are the extents of this rank's output shard.
func (l *Conv) localOutH(ctx *Ctx) int { return l.OutDist.RangeH(ctx.Rank).Len() }
func (l *Conv) localOutW(ctx *Ctx) int { return l.OutDist.RangeW(ctx.Rank).Len() }

// interiorRange returns the local output rows/cols whose convolution windows
// read only owned input (computable before the halo exchange completes).
func (l *Conv) interiorRange(ctx *Ctx) (h, w dist.Range) {
	outH := l.OutDist.RangeH(ctx.Rank)
	outW := l.OutDist.RangeW(ctx.Rank)
	inH := l.InDist.RangeH(ctx.Rank)
	inW := l.InDist.RangeW(ctx.Rank)
	h = interior1D(outH, inH, l.Geom, l.InDist.H)
	w = interior1D(outW, inW, l.Geom, l.InDist.W)
	return
}

// interior1D computes, in local output coordinates, the output indices whose
// required inputs fall inside the owned interval (padding positions count as
// available, since they are materialized zeros, not remote data).
func interior1D(out, own dist.Range, g dist.ConvGeom, size int) dist.Range {
	lo := out.Lo
	for lo < out.Hi {
		req := g.RequiredIn(dist.Range{Lo: lo, Hi: lo + 1}).Intersect(dist.Range{Lo: 0, Hi: size})
		if req.Lo >= own.Lo {
			break
		}
		lo++
	}
	hi := out.Hi
	for hi > lo {
		req := g.RequiredIn(dist.Range{Lo: hi - 1, Hi: hi}).Intersect(dist.Range{Lo: 0, Hi: size})
		if req.Hi <= own.Hi {
			break
		}
		hi--
	}
	return dist.Range{Lo: lo - out.Lo, Hi: hi - out.Lo}
}

// convRegion convolves one rectangular region of the local output (local
// coordinates) out of the halo-extended buffer: output position (oy, ox)
// reads ext rows [AlignH + oy*S, AlignH + oy*S + K) (padding is
// materialized, so the kernel runs with pad=0).
func (l *Conv) convRegion(ext Ext, yLoc *tensor.Tensor, rh, rw dist.Range) {
	if rh.Empty() || rw.Empty() {
		return
	}
	s, k := l.Geom.S, l.Geom.K
	n := ext.T.Dim(0)
	c := ext.T.Dim(1)
	f := l.W.Dim(0)
	ah, aw := l.fwdPlan.AlignH(), l.fwdPlan.AlignW()
	sh, sw := (rh.Len()-1)*s+k, (rw.Len()-1)*s+k
	subBuf := l.ws.Get(n * c * sh * sw)
	sub := tensor.FromSlice(*subBuf, n, c, sh, sw)
	sub.CopyRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: sub.Shape()},
		ext.T,
		tensor.Region{Off: []int{0, 0, ah + rh.Lo*s, aw + rw.Lo*s}, Size: []int{n, c, sh, sw}})
	yBuf := l.ws.Get(n * f * rh.Len() * rw.Len())
	yPart := tensor.FromSlice(*yBuf, n, f, rh.Len(), rw.Len())
	kernels.ConvForward(sub, l.W, l.Bias, yPart, s, 0, l.Algo)
	yLoc.InsertRegion(
		tensor.Region{Off: []int{0, 0, rh.Lo, rw.Lo}, Size: []int{n, f, rh.Len(), rw.Len()}},
		yPart.Data())
	l.ws.Put(subBuf)
	l.ws.Put(yBuf)
}

// Backward computes the local weight gradients (completed by an allreduce
// over all processors unless DeferAllreduce), and returns the error signal
// for the parent layer. With Overlap, the dy halo exchange is hidden under
// the filter-gradient convolution, which needs no halo (Section IV-A).
func (l *Conv) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if !dy.Dist.SameLayout(l.OutDist) {
		panic(fmt.Sprintf("core: conv dy dist %v, want %v", dy.Dist, l.OutDist))
	}
	if l.DW == nil {
		panic("core: Backward on an inference-only Conv (NewConvInference)")
	}
	if !l.hasExt {
		panic("core: conv Backward called before Forward")
	}
	plan := l.bwdPlan
	hasHalo := len(plan.recvW)+len(plan.recvH)+len(plan.sendW)+len(plan.sendH) > 0

	dyExt := plan.NewExtIn(l.ws)
	plan.fillOwned(dyExt, dy.Local)
	xAligned, xBuf := l.alignedInput(ctx)
	runFilter := func() {
		kernels.ConvBackwardFilter(xAligned, dy.Local, l.DW, l.Geom.S, 0, false)
		if l.Bias != nil {
			kernels.BiasBackward(dy.Local, l.DBias, false)
		}
	}
	if l.Overlap && hasHalo {
		req := l.bwdExch.start(ctx, plan, dy.Local, dyExt, l.tag+2)
		runFilter()
		req.Wait()
	} else {
		if hasHalo {
			plan.RunInto(ctx, dy.Local, dyExt, l.tag+2)
		}
		runFilter()
	}
	if xBuf != nil {
		l.ws.Put(xBuf)
	}
	l.xExt.Release(l.ws)

	dx := NewDistTensor(l.InDist, ctx.Rank)
	inH := l.InDist.RangeH(ctx.Rank)
	inW := l.InDist.RangeW(ctx.Rank)
	kernels.ConvBackwardDataRegion(dyExt.T, l.W, dx.Local, l.Geom.S, l.Geom.Pad,
		inH.Lo, inW.Lo, dyExt.HLo, dyExt.WLo)
	dyExt.Release(l.ws)

	if !l.DeferAllreduce {
		l.ReduceGradients(ctx)
	}
	l.hasExt = false
	l.xExt = Ext{}
	return dx
}

// alignedInput returns the forward ext buffer restricted to the required
// window (so that pad=0 kernels see ext row oy*S+kh for local output oy).
// When the buffer is already exactly the required window it is returned
// as-is, avoiding the copy — the common stride-1 case. The second result is
// the workspace handle of the copy (nil when no copy was made); the caller
// returns it to the layer workspace after use.
func (l *Conv) alignedInput(ctx *Ctx) (*tensor.Tensor, *[]float32) {
	oh, ow := l.localOutH(ctx), l.localOutW(ctx)
	needH := (oh-1)*l.Geom.S + l.Geom.K
	needW := (ow-1)*l.Geom.S + l.Geom.K
	ah, aw := l.fwdPlan.AlignH(), l.fwdPlan.AlignW()
	if ah == 0 && aw == 0 && l.xExt.T.Dim(2) == needH && l.xExt.T.Dim(3) == needW {
		return l.xExt.T, nil
	}
	n, c := l.xExt.T.Dim(0), l.xExt.T.Dim(1)
	buf := l.ws.Get(n * c * needH * needW)
	sub := tensor.FromSlice(*buf, n, c, needH, needW)
	sub.CopyRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: sub.Shape()},
		l.xExt.T,
		tensor.Region{Off: []int{0, 0, ah, aw}, Size: []int{n, c, needH, needW}})
	return sub, buf
}

// ReduceGradients completes the weight-gradient sum of Eq. 2 with an
// allreduce over all processors (D^(C) and D^(F) are fully replicated, so
// the group P^(p)(D^(C), D^(F)) is the whole grid). The reduction is
// rank-order stable, so the same gradients emerge bitwise whether the sum
// runs here, deferred on a proxy goroutine, or fused into a coalescing
// bucket (nn's gradient-overlap engine).
func (l *Conv) ReduceGradients(ctx *Ctx) {
	if ctx.C.Size() == 1 {
		return
	}
	ctx.C.Allreduce(l.DW.Data(), comm.OpSum)
	if l.DBias != nil {
		ctx.C.Allreduce(l.DBias, comm.OpSum)
	}
}
