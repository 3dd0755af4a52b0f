package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file implements the channel and filter parallelism of Section III-D
// as first-class distributed layers over the 4-axis Placement API: both
// consume and produce DistTensors whose channel dimension is blocked over
// the grid's PC axis (spatial dimensions whole), so they compose with
// sample parallelism on the same grid and with any other placement through
// core.Redistribute. The activation collectives run over ctx.Chan (the
// ranks of one channel group) with the rank-order-stable ring, and the
// weight-gradient reductions over ctx.ChanPeers (the ranks holding the same
// weight shard), so training is deterministic and scheduling-independent.
//
// All step-transient buffers (the full-F partial outputs, gathered
// activations, and output/error shards) are acquired once from the
// kernels.Workspace arena at construction and reused, so warm Forward and
// Backward calls allocate nothing.

// checkChannelGrid validates the common constraints of the channel/filter
// layers and returns the output distribution.
func checkChannelGrid(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom) dist.Dist {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if inDist.Grid.Norm() != ctx.Grid {
		panic(fmt.Sprintf("core: input grid %v does not match context grid %v", inDist.Grid, ctx.Grid))
	}
	g := ctx.Grid
	if g.PH != 1 || g.PW != 1 {
		panic(fmt.Sprintf("core: channel/filter-parallel conv requires whole spatial dimensions, got grid %v", g))
	}
	if f < g.ChannelWays() {
		panic(fmt.Sprintf("core: %d filters cannot be blocked %d ways", f, g.ChannelWays()))
	}
	if err := inDist.Validate(); err != nil {
		panic(err)
	}
	out := dist.Dist{Grid: g, N: inDist.N, C: f, H: geom.OutSize(inDist.H), W: geom.OutSize(inDist.W)}
	if err := out.Validate(); err != nil {
		panic(err)
	}
	return out
}

// regionScratch is persistent Off/Size storage for the dim-1 block copies,
// so warm Forward/Backward calls build tensor.Regions without allocating.
type regionScratch struct {
	aOff, aSize, bOff, bSize [4]int
}

// pair fills the scratch and returns two regions backed by it.
func (r *regionScratch) pair(aOff, aSize, bOff, bSize [4]int) (a, b tensor.Region) {
	r.aOff, r.aSize, r.bOff, r.bSize = aOff, aSize, bOff, bSize
	return tensor.Region{Off: r.aOff[:], Size: r.aSize[:]},
		tensor.Region{Off: r.bOff[:], Size: r.bSize[:]}
}

// one fills the scratch and returns a single region backed by it.
func (r *regionScratch) one(off, size [4]int) tensor.Region {
	r.aOff, r.aSize = off, size
	return tensor.Region{Off: r.aOff[:], Size: r.aSize[:]}
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
	full.InsertRegion(rg.one([4]int{0, ranges[me].Lo, 0, 0}, [4]int{n, ranges[me].Len(), h, w}), local.Data())
	for q := 0; q < p; q++ {
		if q == me {
			continue
		}
		data := ch.Recv(q, tag)
		if want := n * ranges[q].Len() * h * w; len(data) != want {
			panic(fmt.Sprintf("core: channel gather got %d words from block %d, want %d", len(data), q, want))
		}
		full.InsertRegion(rg.one([4]int{0, ranges[q].Lo, 0, 0}, [4]int{n, ranges[q].Len(), h, w}), data)
		ch.Release(data)
	}
}

// blockRanges precomputes the channel blocks of total over ways parts.
func blockRanges(total, ways int) []dist.Range {
	out := make([]dist.Range, ways)
	for j := range out {
		out[j] = dist.BlockPartition(total, ways, j)
	}
	return out
}

// ChannelParallelConv partitions the input-channel dimension C: each
// channel group holds the weight slice W[:, cBlk] and this rank's channel
// shard of x, computes a partial output over all filters, and completes the
// channel sum of Eq. 1 with an allreduce over ctx.Chan — the forward
// activation allreduce the performance model prices. The completed output
// is re-blocked on its own channel (filter) dimension, so OutDist is again
// a plain channel-partitioned distribution. Backward-data is local (dx
// inherits the channel partition); the full dy is assembled with an
// allgather (the adjoint of extracting this rank's filter block).
type ChannelParallelConv struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist
	CRange  dist.Range // input channels owned by this rank
	FRange  dist.Range // output filters owned by this rank

	W     *tensor.Tensor // [F, cLoc, K, K]
	DW    *tensor.Tensor
	Bias  []float32 // optional, [F], replicated within the channel group
	DBias []float32

	// Algo selects the local convolution kernel.
	Algo kernels.ConvAlgo
	// DeferAllreduce leaves the dw/dbias reduction over ctx.ChanPeers to
	// the caller; when false Backward completes gradients before returning.
	DeferAllreduce bool

	// inference marks a forward-only layer (NewChannelParallelConvInference):
	// no gradient buffers or error shard exist, Backward panics, and the
	// local partial runs on the batched row-stable kernel so serving answers
	// are independent of micro-batch composition.
	inference bool
	// wp caches the prepacked weights for the inference forward, built
	// lazily from W and dropped by InvalidatePacked after a restore.
	wp *kernels.PackedB

	tag int
	rg  regionScratch

	fBlocks  []dist.Range   // filter block of every channel-group rank
	rsCounts []int          // per-rank reduce-scatter chunk lengths (fBlocks * plane)
	full     *tensor.Tensor // [nLoc, F, OH, OW]: forward partial, backward dy
	fullBuf  *[]float32
	y        DistTensor // persistent output shard, overwritten each step
	dx       DistTensor // persistent error shard
	x        *tensor.Tensor
}

// NewChannelParallelConv constructs the layer for inputs distributed as
// inDist (channel axis blocked PC ways, spatial whole) producing f filters.
func NewChannelParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *ChannelParallelConv {
	l := newChannelParallelConv(ctx, inDist, f, geom, bias)
	l.DW = tensor.New(f, l.CRange.Len(), geom.K, geom.K)
	if bias {
		l.DBias = make([]float32, f)
	}
	l.dx = NewDistTensor(inDist, ctx.Rank)
	return l
}

func newChannelParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *ChannelParallelConv {
	outDist := checkChannelGrid(ctx, inDist, f, geom)
	cr := inDist.RangeC(ctx.Rank)
	fr := outDist.RangeC(ctx.Rank)
	nLoc := inDist.RangeN(ctx.Rank).Len()
	ws := kernels.DefaultWorkspace()
	l := &ChannelParallelConv{
		Geom: geom, InDist: inDist, OutDist: outDist,
		CRange: cr, FRange: fr,
		W:    tensor.New(f, cr.Len(), geom.K, geom.K),
		Algo: kernels.ConvAuto,
		tag:  ctx.AllocTags(2),
	}
	if bias {
		l.Bias = make([]float32, f)
	}
	l.fBlocks = blockRanges(f, ctx.Grid.ChannelWays())
	plane := outDist.H * outDist.W
	l.rsCounts = make([]int, len(l.fBlocks))
	for q, fb := range l.fBlocks {
		l.rsCounts[q] = fb.Len() * plane
	}
	l.fullBuf = ws.Get(nLoc * f * plane)
	l.full = tensor.FromSlice(*l.fullBuf, nLoc, f, outDist.H, outDist.W)
	l.y = NewDistTensor(outDist, ctx.Rank)
	return l
}

// Forward consumes this rank's channel shard x [nLoc, cLoc, H, W] and
// returns the output blocked on filters [nLoc, fLoc, OH, OW]. The returned
// shard is owned by the layer and overwritten by the next step.
//
// The channel sum of Eq. 1 completes with a rank-order-stable
// reduce-scatter over ctx.Chan: each rank receives only its own filter
// block — half the wire cost of the earlier full allreduce — and the
// association order (block 0, 1, ..., left-associated) is exactly the
// stable allreduce's, so the produced bits are unchanged.
func (l *ChannelParallelConv) Forward(ctx *Ctx, x DistTensor) DistTensor {
	if !x.Dist.SameLayout(l.InDist) {
		panic(fmt.Sprintf("core: channel-parallel conv input dist %v, want %v", x.Dist, l.InDist))
	}
	if l.inference {
		// Prepacked weights, no epilogue: the bias belongs to the complete
		// filter sum, so it is added after the reduce-scatter below. The
		// prepacked kernel's per-element accumulation order matches
		// ConvForwardBatched's exactly, so sharded answers keep their bitwise
		// identity with unsharded serving.
		if l.wp == nil {
			l.wp = kernels.PackConvWeights(l.W)
		}
		kernels.ConvForwardBatchedPrepacked(x.Local, l.wp, l.Geom.K, nil, l.full, l.Geom.S, l.Geom.Pad, nil, 0)
	} else {
		kernels.ConvForward(x.Local, l.W, nil, l.full, l.Geom.S, l.Geom.Pad, l.Algo)
	}
	reduceScatterOwnBlock(ctx, l.full, l.y.Local, l.rsCounts)
	if l.Bias != nil {
		addBiasBlock(l.y.Local, l.Bias[l.FRange.Lo:l.FRange.Hi])
	}
	if !l.inference {
		l.x = x.Local
	}
	return l.y
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

// Backward consumes this rank's filter block of dy and returns dx for this
// rank's channel shard. The full dy is assembled over ctx.Chan; dw and dx
// are then purely local, and the weight-gradient sum over sample groups is
// completed over ctx.ChanPeers (unless deferred).
func (l *ChannelParallelConv) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.DW == nil {
		panic("core: Backward on an inference-only channel-parallel conv (NewChannelParallelConvInference)")
	}
	if l.x == nil {
		panic("core: channel-parallel Backward before Forward")
	}
	if !dy.Dist.SameLayout(l.OutDist) {
		panic(fmt.Sprintf("core: channel-parallel conv dy dist %v, want %v", dy.Dist, l.OutDist))
	}
	gatherDim1(ctx, dy.Local, l.full, l.fBlocks, l.tag, &l.rg)
	kernels.ConvBackwardFilter(l.x, l.full, l.DW, l.Geom.S, l.Geom.Pad, false)
	if l.DBias != nil {
		kernels.BiasBackward(l.full, l.DBias, false)
	}
	kernels.ConvBackwardData(l.full, l.W, l.dx.Local, l.Geom.S, l.Geom.Pad)
	if !l.DeferAllreduce {
		l.ReduceGradients(ctx)
	}
	l.x = nil
	return l.dx
}

// ReduceGradients completes the weight-gradient sum over the ranks holding
// this weight shard (same channel block, different sample groups).
func (l *ChannelParallelConv) ReduceGradients(ctx *Ctx) {
	if ctx.ChanPeers.Size() == 1 {
		return
	}
	ctx.ChanPeers.AllreduceAlgo(l.DW.Data(), comm.OpSum, comm.AllreduceStableRing)
	if l.DBias != nil {
		ctx.ChanPeers.AllreduceAlgo(l.DBias, comm.OpSum, comm.AllreduceStableRing)
	}
}

// FilterParallelConv partitions the output-filter dimension F: each channel
// group holds W[fBlk, :] for a block of filters, allgathers the partitioned
// input channels over ctx.Chan into the full input, and computes its filter
// block with no further forward communication, so the output emerges
// blocked on its channel (filter) dimension. Backward-data requires the sum
// over filter blocks, realized as an allreduce over ctx.Chan — the backward
// data allreduce the performance model prices; weight gradients are local
// to the filter block (summed over sample groups via ctx.ChanPeers).
type FilterParallelConv struct {
	Geom    dist.ConvGeom
	InDist  dist.Dist
	OutDist dist.Dist
	CRange  dist.Range // input channels owned by this rank
	FRange  dist.Range // output filters owned by this rank

	W     *tensor.Tensor // [fLoc, C, K, K]
	DW    *tensor.Tensor
	Bias  []float32 // optional, [fLoc]
	DBias []float32

	// Algo selects the local convolution kernel.
	Algo kernels.ConvAlgo
	// DeferAllreduce leaves the dw/dbias reduction over ctx.ChanPeers to
	// the caller.
	DeferAllreduce bool

	// inference marks a forward-only layer (NewFilterParallelConvInference):
	// no gradient buffers or error shard exist, Backward panics, and the
	// gathered-input convolution runs on the batched row-stable kernel —
	// because its weight rows and input channels are complete, the produced
	// filter block is bitwise identical to the same rows of a sequential
	// ConvForwardBatched, which is what makes filter-sharded serving
	// replicas answer identically to unsharded ones.
	inference bool
	// wp caches the prepacked weights for the inference forward, built
	// lazily from W and dropped by InvalidatePacked after a restore.
	wp *kernels.PackedB
	// epi folds the filter-block bias into the GEMM store (inference only).
	epi *kernels.Epilogue

	tag int
	rg  regionScratch

	cBlocks  []dist.Range // input-channel block of every channel-group rank
	rsCounts []int        // per-rank reduce-scatter chunk lengths (cBlocks * plane)
	// xFull holds the gathered input in forward and is reused as the
	// partial dx accumulator in backward (backward-filter consumes it
	// before backward-data overwrites it).
	xFull    *tensor.Tensor // [nLoc, C, H, W]
	xFullBuf *[]float32
	y        DistTensor
	dx       DistTensor
	haveX    bool
}

// NewFilterParallelConv constructs the layer for inputs distributed as
// inDist (channel axis blocked PC ways, spatial whole) producing f filters.
func NewFilterParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *FilterParallelConv {
	l := newFilterParallelConv(ctx, inDist, f, geom, bias)
	l.DW = tensor.New(l.FRange.Len(), inDist.C, geom.K, geom.K)
	if bias {
		l.DBias = make([]float32, l.FRange.Len())
	}
	l.dx = NewDistTensor(inDist, ctx.Rank)
	return l
}

func newFilterParallelConv(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *FilterParallelConv {
	outDist := checkChannelGrid(ctx, inDist, f, geom)
	cr := inDist.RangeC(ctx.Rank)
	fr := outDist.RangeC(ctx.Rank)
	nLoc := inDist.RangeN(ctx.Rank).Len()
	ws := kernels.DefaultWorkspace()
	l := &FilterParallelConv{
		Geom: geom, InDist: inDist, OutDist: outDist,
		CRange: cr, FRange: fr,
		W:    tensor.New(fr.Len(), inDist.C, geom.K, geom.K),
		Algo: kernels.ConvAuto,
		tag:  ctx.AllocTags(2),
	}
	if bias {
		l.Bias = make([]float32, fr.Len())
	}
	l.cBlocks = blockRanges(inDist.C, ctx.Grid.ChannelWays())
	l.rsCounts = make([]int, len(l.cBlocks))
	for q, cb := range l.cBlocks {
		l.rsCounts[q] = cb.Len() * inDist.H * inDist.W
	}
	l.xFullBuf = ws.Get(nLoc * inDist.C * inDist.H * inDist.W)
	l.xFull = tensor.FromSlice(*l.xFullBuf, nLoc, inDist.C, inDist.H, inDist.W)
	l.y = NewDistTensor(outDist, ctx.Rank)
	return l
}

// Forward consumes this rank's channel shard x [nLoc, cLoc, H, W] and
// returns this rank's filter block [nLoc, fLoc, OH, OW]. The returned shard
// is owned by the layer and overwritten by the next step.
func (l *FilterParallelConv) Forward(ctx *Ctx, x DistTensor) DistTensor {
	if !x.Dist.SameLayout(l.InDist) {
		panic(fmt.Sprintf("core: filter-parallel conv input dist %v, want %v", x.Dist, l.InDist))
	}
	gatherDim1(ctx, x.Local, l.xFull, l.cBlocks, l.tag, &l.rg)
	if l.inference {
		// Prepacked weights with the filter-block bias folded into the GEMM
		// store epilogue (bitwise the unshuffle's v + bias[f] fold).
		if l.wp == nil {
			l.wp = kernels.PackConvWeights(l.W)
			if l.Bias != nil {
				l.epi = &kernels.Epilogue{Bias: l.Bias}
			}
		}
		kernels.ConvForwardBatchedPrepacked(l.xFull, l.wp, l.Geom.K, l.epi, l.y.Local, l.Geom.S, l.Geom.Pad, nil, 0)
	} else {
		kernels.ConvForward(l.xFull, l.W, l.Bias, l.y.Local, l.Geom.S, l.Geom.Pad, l.Algo)
		l.haveX = true
	}
	return l.y
}

// Backward consumes this rank's filter block of dy and returns dx for this
// rank's channel shard: dw/dbias are local to the filter block, and the sum
// of the partial dx over filter blocks completes with a rank-order-stable
// reduce-scatter over ctx.Chan — this rank receives only its own channel
// slice, at half the wire cost of the earlier full allreduce, with the same
// association order (so the produced bits are unchanged).
func (l *FilterParallelConv) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.DW == nil {
		panic("core: Backward on an inference-only filter-parallel conv (NewFilterParallelConvInference)")
	}
	if !l.haveX {
		panic("core: filter-parallel Backward before Forward")
	}
	if !dy.Dist.SameLayout(l.OutDist) {
		panic(fmt.Sprintf("core: filter-parallel conv dy dist %v, want %v", dy.Dist, l.OutDist))
	}
	kernels.ConvBackwardFilter(l.xFull, dy.Local, l.DW, l.Geom.S, l.Geom.Pad, false)
	if l.DBias != nil {
		kernels.BiasBackward(dy.Local, l.DBias, false)
	}
	// xFull has served backward-filter; reuse its storage for the partial
	// full-channel dx (ConvBackwardData overwrites as it accumulates).
	dxFull := l.xFull
	kernels.ConvBackwardData(dy.Local, l.W, dxFull, l.Geom.S, l.Geom.Pad)
	reduceScatterOwnBlock(ctx, dxFull, l.dx.Local, l.rsCounts)
	if !l.DeferAllreduce {
		l.ReduceGradients(ctx)
	}
	l.haveX = false
	return l.dx
}

// ReduceGradients completes the weight-gradient sum over the ranks holding
// this filter block (same channel coordinate, different sample groups).
func (l *FilterParallelConv) ReduceGradients(ctx *Ctx) {
	if ctx.ChanPeers.Size() == 1 {
		return
	}
	ctx.ChanPeers.AllreduceAlgo(l.DW.Data(), comm.OpSum, comm.AllreduceStableRing)
	if l.DBias != nil {
		ctx.ChanPeers.AllreduceAlgo(l.DBias, comm.OpSum, comm.AllreduceStableRing)
	}
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
