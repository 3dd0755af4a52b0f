package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Conv is the distributed 2-D convolution: one layer for sample, spatial,
// channel and filter parallelism, which the paper (Section III) and its
// channel/filter extension (Section III-D) treat as distributions of the
// same operation. Activations are blocked over the 4-axis grid
// {PN, PC, PH, PW}; CRange and FRange are this rank's blocks of the input
// and output channels. When the grid splits the channel axis, Split says
// which weight dimension of the global W [F, C, K, K] is partitioned, and
// this rank holds Bias[FRange] of the global bias [F] and the slice of W
// that WeightRanges names:
//
//   - SplitNone: every rank holds all of W and the bias (PC = 1). Sample
//     and spatial parallelism, with halo exchanges when the grid splits H
//     or W.
//   - SplitChannel: W[:, CRange].
//   - SplitFilter: W[FRange, :].
//
// Forward runs four steps; under each split some are the identity:
//
//  1. Assemble the local input. When PH·PW > 1 this is the halo-extended
//     input, exchanged with spatial neighbours (concurrently with the
//     interior convolution when Overlap is set). Under SplitFilter it is
//     the allgather of every channel block over ctx.Chan. Otherwise it is
//     x itself, convolved with the geometry's padding.
//  2. Run the local kernel: kernels.ConvForward, or the prepacked
//     row-stable kernel on a forward-only layer, whose store epilogue
//     adds the bias and any batch normalization and ReLU folded in by
//     Fuse.
//  3. Complete partial sums. Under SplitChannel every rank holds a partial
//     sum over all F filters, and a rank-ordered stable reduce-scatter over
//     ctx.Chan leaves this rank its filter block, to which the bias is
//     added. The identity under every other split.
//  4. Reduce the weight gradients over ctx.ChanPeers, the ranks holding
//     the same slice (every rank when replicated: at PC = 1 ChanPeers holds
//     the ranks of ctx.C in the same order), unless DeferAllreduce leaves
//     that to the caller.
//
// Backward mirrors them: dy gets its halo when PH·PW > 1, and under
// SplitChannel the allgather of its filter blocks; under SplitFilter the
// error signal is a partial sum over this rank's filters, completed by the
// reduce-scatter over ctx.Chan. Every reduction is rank-ordered, so the
// layer is deterministic whatever the schedule.
//
// The channel and filter splits need whole spatial dimensions
// (PH = PW = 1), and so does a forward-only layer, which holds no gradient
// buffers and whose Backward panics.
//
// The output and error signal are owned by the layer, allocated on first
// use and overwritten by the next step; a caller that keeps one across
// steps must copy it.
type Conv struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist
	CRange  dist.Range // input channels this rank holds
	FRange  dist.Range // output channels (filters) this rank holds

	W     *tensor.Tensor // the WeightRanges slice of the global weights
	Bias  []float32      // optional, [FRange.Len()]
	DW    *tensor.Tensor // nil on a forward-only layer
	DBias []float32

	// Algo selects the local convolution kernel (cuDNN algorithm analogue).
	Algo kernels.ConvAlgo
	// Overlap enables interior/boundary decomposition in forward propagation
	// and hiding the dy halo exchange under the filter-gradient computation
	// in backpropagation (Section IV-A).
	Overlap bool
	// DeferAllreduce leaves step 4 to the caller (the network runner
	// overlaps it with other layers, Section V-B); when false Backward
	// completes gradients before returning.
	DeferAllreduce bool

	split       dist.Split
	forwardOnly bool
	halo        bool // the grid splits H or W
	fwdPlan     *HaloPlan
	bwdPlan     *HaloPlan
	tag         int

	// Pre-bound proxy closures for the overlapped halo exchanges: the
	// exchange runs on the communicator's proxy engine (comm.Comm.Do)
	// instead of a goroutine spawned per layer call, and re-binding only
	// mutates these argument structs, so a warm overlapped step submits
	// with zero allocations.
	fwdExch, bwdExch exchangeOp

	// blocks are every ctx.Chan rank's block of full's dimension 1, and
	// rsCounts their reduce-scatter chunk lengths per sample.
	blocks   []dist.Range
	rsCounts []int
	rg       regionScratch

	// pack is a forward-only layer's prepack slot, shared by every layer
	// that ShareWeights pointed at the same weights; fuseBN and fuseReLU
	// are what Fuse folded into its epilogue.
	pack     *convPack
	fuseBN   *BatchNorm
	fuseReLU bool

	// y and dx are the layer-owned output and error signal. full is the
	// split dimension at full extent: [nLoc, F, OH, OW] under SplitChannel
	// (the forward partial sum, then the gathered dy) or [nLoc, C, H, W]
	// under SplitFilter (the gathered x, then the partial dx).
	y, dx, full Owned

	xIn Ext // step 1's local input, kept for backward-filter
}

// convWS supplies the halo buffers and region scratch of every Conv.
var convWS = kernels.DefaultWorkspace()

// NewConv constructs a replicated-weight convolution producing f filters
// from inputs distributed as inDist. bias=true adds a learnable bias.
func NewConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	return NewPlacedConv(ctx, inDist, f, geom, bias, dist.SplitNone, false)
}

// NewChannelParallelConv constructs the SplitChannel convolution.
func NewChannelParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	return NewPlacedConv(ctx, inDist, f, geom, bias, dist.SplitChannel, false)
}

// NewFilterParallelConv constructs the SplitFilter convolution.
func NewFilterParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	return NewPlacedConv(ctx, inDist, f, geom, bias, dist.SplitFilter, false)
}

// NewPlacedConv constructs the convolution producing f filters from inputs
// distributed as inDist, with its weights split by split. bias=true adds a
// learnable bias. A forwardOnly layer allocates no gradient state and runs
// the prepacked row-stable kernel, so its answers are independent of the
// batch composition.
func NewPlacedConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool, split dist.Split, forwardOnly bool) *Conv {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if err := inDist.Validate(); err != nil {
		panic(err)
	}
	g := inDist.Grid
	switch {
	case g.Norm() != ctx.Grid:
		panic(fmt.Sprintf("core: input grid %v does not match context grid %v", g, ctx.Grid))
	case split == dist.SplitNone && g.ChannelWays() > 1:
		panic(fmt.Sprintf("core: replicated-weight conv cannot consume channel-partitioned input %v; split the channel or filter dimension", inDist))
	case split != dist.SplitNone && g.SpatialWays() > 1:
		panic(fmt.Sprintf("core: %v-split conv requires whole spatial dimensions, got grid %v", split, g))
	case forwardOnly && g.SpatialWays() > 1:
		panic(fmt.Sprintf("core: forward-only conv requires whole spatial dimensions, got grid %v", g))
	}
	out := dist.Dist{Grid: g, N: inDist.N, C: f, H: geom.OutSize(inDist.H), W: geom.OutSize(inDist.W)}
	if err := out.Validate(); err != nil {
		panic(err)
	}
	l := &Conv{
		Geom: geom, InDist: inDist, OutDist: out, split: split,
		CRange: inDist.RangeC(ctx.Rank), FRange: out.RangeC(ctx.Rank),
		Algo: kernels.ConvAuto, Overlap: true,
		forwardOnly: forwardOnly,
		halo:        g.SpatialWays() > 1,
		tag:         ctx.AllocTags(4),
		pack:        &convPack{},
	}
	if split != dist.SplitNone {
		full := l.fullDist()
		ways := g.ChannelWays()
		l.blocks, l.rsCounts = make([]dist.Range, ways), make([]int, ways)
		for q := range l.blocks {
			l.blocks[q] = dist.BlockPartition(full.C, ways, q)
			l.rsCounts[q] = l.blocks[q].Len() * full.H * full.W
		}
	}
	wf, wc := l.WeightRanges()
	l.W = tensor.New(wf.Len(), wc.Len(), geom.K, geom.K)
	if bias {
		l.Bias = make([]float32, l.FRange.Len())
	}
	if !forwardOnly {
		l.DW = tensor.New(wf.Len(), wc.Len(), geom.K, geom.K)
		if bias {
			l.DBias = make([]float32, l.FRange.Len())
		}
	}
	if l.halo {
		l.fwdPlan = forwardPlan(inDist, ctx.Rank, geom, out.H, out.W)
		l.bwdPlan = backwardPlan(out, ctx.Rank, geom, inDist.H, inDist.W)
	}
	return l
}

// Split returns the weight dimension the layer partitions.
func (l *Conv) Split() dist.Split { return l.split }

// WeightRanges returns the filters and input channels of the global
// weights that W holds.
func (l *Conv) WeightRanges() (f, c dist.Range) {
	f, c = dist.Range{Lo: 0, Hi: l.OutDist.C}, dist.Range{Lo: 0, Hi: l.InDist.C}
	switch l.split {
	case dist.SplitChannel:
		c = l.CRange
	case dist.SplitFilter:
		f = l.FRange
	}
	return f, c
}

// fullDist is the distribution whose channels a split layer holds at full
// extent in full: the output under SplitChannel, the input under
// SplitFilter, on the sample axis alone. A split layer has PH = PW = 1, so
// this rank's position on that axis is ctx.ChanPeers.Rank().
func (l *Conv) fullDist() dist.Dist {
	d := l.OutDist
	if l.split == dist.SplitFilter {
		d = l.InDist
	}
	d.Grid = dist.Grid{PN: d.Grid.PN, PH: 1, PW: 1}
	return d
}

// convPack is the prepack slot of a forward-only conv, shared by the
// layers sharing its weights: one immutable packedConv behind an atomic
// pointer, so a warm Forward costs one load, and a mutex that serializes
// the rare build.
type convPack struct {
	mu sync.Mutex
	p  atomic.Pointer[packedConv]
}

// packedConv holds the panel-blocked weights and the store epilogue built
// from the bias and the fused batchnorm's values.
type packedConv struct {
	pb  *kernels.PackedB
	epi *kernels.Epilogue
}

// InvalidatePacked drops the prepacked weights and epilogue of a
// forward-only layer, and of every layer sharing them; the next Forward
// repacks from the current W, Bias and fused batchnorm. Call after writing
// new values into any of them (checkpoint restore, rejoin state transfer)
// on a layer that may already have served.
func (l *Conv) InvalidatePacked() { l.pack.p.Store(nil) }

// Fuse folds bn, then (when relu) a ReLU, into the store epilogue of this
// forward-only layer; bn may be nil to fold the ReLU alone. The caller
// guarantees they are the sole consumers of the output and skips them: the
// fused output is bitwise theirs. Under SplitChannel the bias is added
// after the reduce-scatter, so nothing can follow it into the epilogue.
// Call it at construction: a prepack shared through ShareWeights was built
// under the same fusion.
func (l *Conv) Fuse(bn *BatchNorm, relu bool) {
	if !l.forwardOnly || l.split == dist.SplitChannel || bn != nil && !bn.inference {
		panic(fmt.Sprintf("core: cannot fuse into a %v-split conv (forward-only %v)", l.split, l.forwardOnly))
	}
	l.fuseBN, l.fuseReLU = bn, relu
}

// ShareWeights makes l read src's weights, bias and prepack slot, so a
// replica of a forward-only network aliases one copy of them.
func (l *Conv) ShareWeights(src *Conv) {
	l.W, l.Bias, l.pack = src.W, src.Bias, src.pack
}

// packed returns the current prepack generation, building it on first use
// or after InvalidatePacked, at most once across the layers sharing it.
func (l *Conv) packed() *packedConv {
	if pc := l.pack.p.Load(); pc != nil {
		return pc
	}
	l.pack.mu.Lock()
	defer l.pack.mu.Unlock()
	if pc := l.pack.p.Load(); pc != nil {
		return pc
	}
	// The prepacked kernel's per-element accumulation order is
	// ConvForwardBatched's, with the bias and the fused layers applied in
	// the GEMM store.
	pc := &packedConv{pb: kernels.PackConvWeights(l.W)}
	bias := l.Bias
	if l.split == dist.SplitChannel {
		bias = nil
	}
	if bn := l.fuseBN; bn != nil {
		pc.epi = kernels.NewBNEpilogue(bias, bn.Gamma, bn.Beta, bn.RunMean, bn.RunVar, bn.Eps, l.fuseReLU)
	} else if bias != nil || l.fuseReLU {
		pc.epi = &kernels.Epilogue{Bias: bias, ReLU: l.fuseReLU}
	}
	l.pack.p.Store(pc)
	return pc
}

// Forward returns this rank's output shard, which the layer owns. x may
// hold n ≤ InDist.N samples (the whole batch on a grid that splits H or
// W); every step then runs on those n alone, including the split's
// collective, and the result is the first n samples of the owned output.
func (l *Conv) Forward(ctx *Ctx, x DistTensor) DistTensor {
	return l.ForwardTraced(ctx, x, nil, 0)
}

// ForwardTraced is Forward, with a forward-only layer's kernel phases
// recorded on tr under id.
func (l *Conv) ForwardTraced(ctx *Ctx, x DistTensor, tr *obs.Ring, id uint64) DistTensor {
	n := batchOf(x, l.InDist, "conv", l.halo)
	y := l.y.Rows(l.OutDist, ctx.Rank, n)
	// A forward-only layer, or a caller timing Forward alone, never reaches
	// Backward's release; recycle the previous step's input here.
	l.xIn.Release(convWS)
	switch {
	case l.halo:
		l.forwardHalo(ctx, x, y.Local)
		return y
	case l.split == dist.SplitFilter:
		full := l.full.Rows(l.fullDist(), ctx.ChanPeers.Rank(), n).Local
		gatherDim1(ctx, x.Local, full, l.blocks, l.tag, &l.rg)
		l.xIn = Ext{T: full}
	default:
		l.xIn = Ext{T: x.Local}
	}
	if l.split == dist.SplitChannel {
		full := l.full.Rows(l.fullDist(), ctx.ChanPeers.Rank(), n).Local
		l.convLocal(l.xIn.T, full, tr, id)
		reduceScatterOwnBlock(ctx, full, y.Local, l.rsCounts)
		if l.Bias != nil {
			addBiasBlock(y.Local, l.Bias)
		}
	} else {
		l.convLocal(l.xIn.T, y.Local, tr, id)
	}
	if l.forwardOnly {
		l.xIn = Ext{}
	}
	return y
}

// convLocal is step 2 on whole spatial dimensions: out = conv(in, W), plus
// the bias unless it belongs after step 3.
func (l *Conv) convLocal(in, out *tensor.Tensor, tr *obs.Ring, id uint64) {
	if l.forwardOnly {
		pc := l.packed()
		kernels.ConvForwardBatchedPrepacked(in, pc.pb, l.Geom.K, pc.epi, out, l.Geom.S, l.Geom.Pad, tr, id)
		return
	}
	bias := l.Bias
	if l.split == dist.SplitChannel {
		bias = nil
	}
	kernels.ConvForward(in, l.W, bias, out, l.Geom.S, l.Geom.Pad, l.Algo)
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

// forwardHalo is Forward on a spatially split grid: steps 1 and 2 on the
// halo-extended input. With Overlap, the halo exchange runs concurrently
// with the interior convolution and only the boundary waits for it.
func (l *Conv) forwardHalo(ctx *Ctx, x DistTensor, y *tensor.Tensor) {
	plan := l.fwdPlan
	ext := plan.NewExtIn(convWS)
	plan.fillOwned(ext, x.Local)
	oh, ow := l.localOutH(ctx), l.localOutW(ctx)
	if l.Overlap && plan.exchanges() {
		req := l.fwdExch.start(ctx, plan, x.Local, ext, l.tag)
		intH, intW := l.interiorRange(ctx)
		l.convRegion(ext, y, intH, intW)
		req.Wait()
		// Boundary: top and bottom full-width strips, then left/right
		// columns of the interior rows.
		for _, r := range []struct{ h, w dist.Range }{
			{dist.Range{Lo: 0, Hi: intH.Lo}, dist.Range{Lo: 0, Hi: ow}},
			{dist.Range{Lo: intH.Hi, Hi: oh}, dist.Range{Lo: 0, Hi: ow}},
			{intH, dist.Range{Lo: 0, Hi: intW.Lo}},
			{intH, dist.Range{Lo: intW.Hi, Hi: ow}},
		} {
			l.convRegion(ext, y, r.h, r.w)
		}
	} else {
		if plan.exchanges() {
			plan.RunInto(ctx, x.Local, ext, l.tag)
		}
		if plan.AlignH() == 0 && plan.AlignW() == 0 &&
			ext.T.Dim(2) == (oh-1)*l.Geom.S+l.Geom.K && ext.T.Dim(3) == (ow-1)*l.Geom.S+l.Geom.K {
			// Ext is exactly the required window: convolve it directly.
			kernels.ConvForward(ext.T, l.W, l.Bias, y, l.Geom.S, 0, l.Algo)
		} else {
			l.convRegion(ext, y, dist.Range{Lo: 0, Hi: oh}, dist.Range{Lo: 0, Hi: ow})
		}
	}
	l.xIn = ext
}

// localOutH/localOutW are the extents of this rank's output shard.
func (l *Conv) localOutH(ctx *Ctx) int { return l.OutDist.RangeH(ctx.Rank).Len() }
func (l *Conv) localOutW(ctx *Ctx) int { return l.OutDist.RangeW(ctx.Rank).Len() }

// interiorRange returns the local output rows/cols whose convolution windows
// read only owned input (computable before the halo exchange completes).
func (l *Conv) interiorRange(ctx *Ctx) (h, w dist.Range) {
	_, _, outH, outW := l.OutDist.Block(ctx.Rank)
	_, _, inH, inW := l.InDist.Block(ctx.Rank)
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
	subBuf := convWS.Get(n * c * sh * sw)
	sub := tensor.FromSlice(*subBuf, n, c, sh, sw)
	sub.CopyRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: sub.Shape()},
		ext.T,
		tensor.Region{Off: []int{0, 0, ah + rh.Lo*s, aw + rw.Lo*s}, Size: []int{n, c, sh, sw}})
	yBuf := convWS.Get(n * f * rh.Len() * rw.Len())
	yPart := tensor.FromSlice(*yBuf, n, f, rh.Len(), rw.Len())
	kernels.ConvForward(sub, l.W, l.Bias, yPart, s, 0, l.Algo)
	yLoc.InsertRegion(
		tensor.Region{Off: []int{0, 0, rh.Lo, rw.Lo}, Size: []int{n, f, rh.Len(), rw.Len()}},
		yPart.Data())
	convWS.Put(subBuf)
	convWS.Put(yBuf)
}

// Backward computes this rank's weight gradients (completed by step 4
// unless DeferAllreduce) and returns the error signal for this rank's
// input shard, which the layer owns.
func (l *Conv) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.forwardOnly {
		panic("core: Backward on a forward-only Conv")
	}
	if l.xIn.T == nil {
		panic("core: conv Backward called before Forward")
	}
	if !dy.Dist.SameLayout(l.OutDist) {
		panic(fmt.Sprintf("core: conv dy dist %v, want %v", dy.Dist, l.OutDist))
	}
	dx := l.dx.Rows(l.InDist, ctx.Rank, l.InDist.N)
	if l.halo {
		l.backwardHalo(ctx, dy, dx.Local)
	} else {
		dyFull, dxFull := dy.Local, dx.Local
		switch l.split {
		case dist.SplitChannel:
			dyFull = l.full.Rows(l.fullDist(), ctx.ChanPeers.Rank(), l.OutDist.N).Local
			gatherDim1(ctx, dy.Local, dyFull, l.blocks, l.tag, &l.rg)
		case dist.SplitFilter:
			// full holds the gathered x until backward-filter has read it.
			dxFull = l.full.Rows(l.fullDist(), ctx.ChanPeers.Rank(), l.InDist.N).Local
		}
		kernels.ConvBackwardFilter(l.xIn.T, dyFull, l.DW, l.Geom.S, l.Geom.Pad, false)
		if l.DBias != nil {
			kernels.BiasBackward(dy.Local, l.DBias, false)
		}
		kernels.ConvBackwardData(dyFull, l.W, dxFull, l.Geom.S, l.Geom.Pad)
		if l.split == dist.SplitFilter {
			reduceScatterOwnBlock(ctx, dxFull, dx.Local, l.rsCounts)
		}
	}
	l.xIn.Release(convWS)
	l.xIn = Ext{}
	if !l.DeferAllreduce && ctx.ChanPeers.Size() > 1 {
		ctx.ChanPeers.Allreduce(l.DW.Data(), comm.OpSum)
		if l.DBias != nil {
			ctx.ChanPeers.Allreduce(l.DBias, comm.OpSum)
		}
	}
	return dx
}

// backwardHalo is Backward's data and filter gradients on a spatially split
// grid. With Overlap, the dy halo exchange is hidden under the
// filter-gradient convolution, which needs no halo (Section IV-A).
func (l *Conv) backwardHalo(ctx *Ctx, dy DistTensor, dx *tensor.Tensor) {
	plan := l.bwdPlan
	dyExt := plan.NewExtIn(convWS)
	plan.fillOwned(dyExt, dy.Local)
	xAligned, xBuf := l.alignedInput(ctx)
	runFilter := func() {
		kernels.ConvBackwardFilter(xAligned, dy.Local, l.DW, l.Geom.S, 0, false)
		if l.Bias != nil {
			kernels.BiasBackward(dy.Local, l.DBias, false)
		}
	}
	if l.Overlap && plan.exchanges() {
		req := l.bwdExch.start(ctx, plan, dy.Local, dyExt, l.tag+2)
		runFilter()
		req.Wait()
	} else {
		if plan.exchanges() {
			plan.RunInto(ctx, dy.Local, dyExt, l.tag+2)
		}
		runFilter()
	}
	convWS.Put(xBuf)
	l.xIn.Release(convWS)
	_, _, inH, inW := l.InDist.Block(ctx.Rank)
	kernels.ConvBackwardDataRegion(dyExt.T, l.W, dx, l.Geom.S, l.Geom.Pad,
		inH.Lo, inW.Lo, dyExt.HLo, dyExt.WLo)
	dyExt.Release(convWS)
}

// alignedInput returns the forward ext buffer restricted to the required
// window (so that pad=0 kernels see ext row oy*S+kh for local output oy).
// When the buffer is already exactly the required window it is returned
// as-is, avoiding the copy — the common stride-1 case. The second result is
// the workspace handle of the copy (nil when no copy was made); the caller
// returns it to the workspace after use.
func (l *Conv) alignedInput(ctx *Ctx) (*tensor.Tensor, *[]float32) {
	oh, ow := l.localOutH(ctx), l.localOutW(ctx)
	needH := (oh-1)*l.Geom.S + l.Geom.K
	needW := (ow-1)*l.Geom.S + l.Geom.K
	ah, aw := l.fwdPlan.AlignH(), l.fwdPlan.AlignW()
	x := l.xIn.T
	if ah == 0 && aw == 0 && x.Dim(2) == needH && x.Dim(3) == needW {
		return x, nil
	}
	n, c := x.Dim(0), x.Dim(1)
	buf := convWS.Get(n * c * needH * needW)
	sub := tensor.FromSlice(*buf, n, c, needH, needW)
	sub.CopyRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: sub.Shape()},
		x,
		tensor.Region{Off: []int{0, 0, ah, aw}, Size: []int{n, c, needH, needW}})
	return sub, buf
}

// regionScratch is persistent Off/Size storage for the dim-1 block copies,
// so warm Forward/Backward calls build tensor.Regions without allocating.
type regionScratch struct {
	off, size [4]int
}

// region fills the scratch and returns a region backed by it.
func (r *regionScratch) region(off, size [4]int) tensor.Region {
	r.off, r.size = off, size
	return tensor.Region{Off: r.off[:], Size: r.size[:]}
}

// gatherDim1 assembles the channel-group blocks of a tensor partitioned on
// dimension 1: every rank of ctx.Chan contributes its local block and
// receives everyone else's, inserting block q at ranges[q]. Message
// payloads stage through the comm pool and regions through the caller's
// scratch, so a warm gather allocates nothing.
func gatherDim1(ctx *Ctx, local *tensor.Tensor, full *tensor.Tensor, ranges []dist.Range, tag int, rg *regionScratch) {
	ch := ctx.Chan
	p := ch.Size()
	me := ch.Rank()
	n, h, w := full.Dim(0), full.Dim(2), full.Dim(3)
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		buf := comm.GetBuf(local.Size())
		copy(buf, local.Data())
		ch.SendNoCopy(q, tag, buf)
	}
	full.InsertRegion(rg.region([4]int{0, ranges[me].Lo, 0, 0}, [4]int{n, ranges[me].Len(), h, w}), local.Data())
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		data := ch.Recv(q, tag)
		if want := n * ranges[q].Len() * h * w; len(data) != want {
			panic(fmt.Sprintf("core: channel gather got %d words from block %d, want %d", len(data), q, want))
		}
		full.InsertRegion(rg.region([4]int{0, ranges[q].Lo, 0, 0}, [4]int{n, ranges[q].Len(), h, w}), data)
		ch.Release(data)
	}
}

// reduceScatterOwnBlock completes a partial distributed on dimension 1:
// full is [nLoc, D, h, w] holding this rank's partial over the full extent
// D, own is [nLoc, dLoc, h, w], and counts give every chan-group rank's
// dim-1 block length in words per sample. One slab-aware stable
// reduce-scatter (one message per peer carrying every sample's chunk)
// delivers exactly this rank's block of every sample, reduced in rank
// order. With a single-rank channel group it degenerates to a copy of the
// owned block.
func reduceScatterOwnBlock(ctx *Ctx, full, own *tensor.Tensor, counts []int) {
	fd, od := full.Data(), own.Data()
	if ctx.Chan.Size() == 1 {
		copy(od, fd)
		return
	}
	mine := ctx.Chan.ReduceScatterStableSlabs(fd, full.Dim(0), counts, comm.OpSum)
	copy(od, mine)
	ctx.Chan.Release(mine)
}

// addBiasBlock adds bias[f] to every (sample, filter) plane of y
// [n, f, oh, ow].
func addBiasBlock(y *tensor.Tensor, bias []float32) {
	s := y.Shape()
	n, f, plane := s[0], s[1], s[2]*s[3]
	yd := y.Data()
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			row := yd[(ni*f+fi)*plane : (ni*f+fi+1)*plane]
			b := bias[fi]
			for i := range row {
				row[i] += b
			}
		}
	}
}
