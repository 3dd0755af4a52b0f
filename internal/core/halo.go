package core

import (
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Ext is a halo-extended local buffer: element (·,·,0,0) of T corresponds to
// global coordinates (HLo, WLo), which may be negative or extend past the
// global extent for forward buffers (those positions hold materialized zero
// padding, so convolution kernels run with pad=0 on it).
type Ext struct {
	T        *tensor.Tensor
	HLo, WLo int

	buf *[]float32 // workspace handle when storage is borrowed
}

// Release returns workspace-backed storage to ws; a no-op for ext buffers
// allocated with NewExt. The tensor must not be used afterwards.
func (e *Ext) Release(ws *kernels.Workspace) {
	if e.buf != nil {
		ws.Put(e.buf)
		e.buf = nil
		e.T = nil
	}
}

// HaloPlan precomputes the transfer lists of a 2-phase halo exchange for one
// (distribution, geometry) pair: phase W moves column strips of owned rows,
// phase H moves full-width row strips (corners piggyback on phase H because
// the W phase has already widened the neighbor's rows). The same plan run in
// reverse accumulates boundary contributions back to their owners (used by
// the pooling backward scatter).
type HaloPlan struct {
	grid           dist.Grid
	pn, pc, ph, pw int
	nLoc, c        int
	ownH, ownW     dist.Range
	reqH, reqW     dist.Range // this rank's (possibly unclipped) required intervals
	// The ext buffer spans the union of owned and required intervals: with
	// stride > 1 a rank's required window may not cover all of its owned
	// block, yet neighbors' sends are served out of the owned data held in
	// ext during phase H, so both must be present.
	extHRng, extWRng dist.Range
	recvW            []dist.Transfer
	sendW            []dist.Transfer
	recvH            []dist.Transfer
	sendH            []dist.Transfer
}

// union returns the smallest range covering both a and b.
func union(a, b dist.Range) dist.Range {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return dist.Range{Lo: lo, Hi: hi}
}

// planExchange builds a HaloPlan. own* are this rank's owned intervals of a
// tensor whose H/W dimensions are blocked over the grid with global extents
// sizeH/sizeW; reqHof(j)/reqWof(j) give the interval block j needs.
func planExchange(grid dist.Grid, rank, nLoc, c int, sizeH, sizeW int,
	ownH, ownW dist.Range, reqHof, reqWof func(j int) dist.Range) *HaloPlan {
	pn, pc, ph, pw := grid.Coords(rank)
	p := &HaloPlan{
		grid: grid, pn: pn, pc: pc, ph: ph, pw: pw,
		nLoc: nLoc, c: c,
		ownH: ownH, ownW: ownW,
		reqH: reqHof(ph), reqW: reqWof(pw),
	}
	p.extHRng = union(p.reqH, ownH)
	p.extWRng = union(p.reqW, ownW)
	p.recvW, p.sendW = dist.Exchanges1D(sizeW, grid.PW, pw, reqWof)
	p.recvH, p.sendH = dist.Exchanges1D(sizeH, grid.PH, ph, reqHof)
	return p
}

// extH/extW are the halo-extended buffer extents.
func (p *HaloPlan) extH() int { return p.extHRng.Len() }
func (p *HaloPlan) extW() int { return p.extWRng.Len() }

// AlignH/AlignW are the offsets of the required window inside the ext
// buffer; zero whenever required covers owned (e.g. stride 1).
func (p *HaloPlan) AlignH() int { return p.reqH.Lo - p.extHRng.Lo }

// AlignW is the column analogue of AlignH.
func (p *HaloPlan) AlignW() int { return p.reqW.Lo - p.extWRng.Lo }

// NewExt allocates the zeroed halo-extended buffer for this plan.
func (p *HaloPlan) NewExt() Ext {
	return Ext{T: tensor.New(p.nLoc, p.c, p.extH(), p.extW()), HLo: p.extHRng.Lo, WLo: p.extWRng.Lo}
}

// NewExtIn is NewExt with storage borrowed from ws (zeroed); callers release
// it with Ext.Release once the exchange's consumers are done, making
// steady-state halo exchanges allocation-free apart from the tensor header.
func (p *HaloPlan) NewExtIn(ws *kernels.Workspace) Ext {
	buf := ws.GetZeroed(p.nLoc * p.c * p.extH() * p.extW())
	return Ext{
		T:   tensor.FromSlice(*buf, p.nLoc, p.c, p.extH(), p.extW()),
		HLo: p.extHRng.Lo, WLo: p.extWRng.Lo,
		buf: buf,
	}
}

// fillOwned copies the local shard into the owned region of ext.
func (p *HaloPlan) fillOwned(ext Ext, local *tensor.Tensor) {
	ext.T.InsertRegion(
		tensor.Region{
			Off:  []int{0, 0, p.ownH.Lo - ext.HLo, p.ownW.Lo - ext.WLo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), p.ownW.Len()},
		},
		local.Data())
}

// Run executes the forward 2-phase exchange: given the local shard, it
// returns the halo-extended buffer with all remote halo regions filled.
// tag must be unique per concurrently outstanding exchange on the context.
func (p *HaloPlan) Run(ctx *Ctx, local *tensor.Tensor, tag int) Ext {
	ext := p.NewExt()
	p.fillOwned(ext, local)
	p.RunInto(ctx, local, ext, tag)
	return ext
}

// RunInto performs the exchange into a pre-filled ext buffer (owned region
// already populated). Split from Run so the overlapped convolution path can
// run it off the critical path while computing the interior. Transfer
// fragments stage through the comm message pool in both directions, so a
// warm exchange allocates nothing.
func (p *HaloPlan) RunInto(ctx *Ctx, local *tensor.Tensor, ext Ext, tag int) {
	p.RunIntoOn(ctx.C, local, ext, tag)
}

// RunIntoOn is RunInto on an explicit communicator handle: the overlapped
// convolution path submits it to the communicator's proxy engine
// (comm.Comm.Do), whose shadow handle has an isolated tag space, so the
// exchange proceeds concurrently with the interior kernels without
// spawning a goroutine per layer.
func (p *HaloPlan) RunIntoOn(cm *comm.Comm, local *tensor.Tensor, ext Ext, tag int) {
	// Phase W: strips of owned rows. Post all sends, then receive.
	for _, tr := range p.sendW {
		peer := p.grid.Rank(p.pn, p.pc, p.ph, tr.Peer)
		buf := comm.GetBuf(p.nLoc * p.c * p.ownH.Len() * tr.Rng.Len())
		local.ExtractRegionInto(tensor.Region{
			Off:  []int{0, 0, 0, tr.Rng.Lo - p.ownW.Lo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), tr.Rng.Len()},
		}, buf)
		cm.SendNoCopy(peer, tag, buf)
	}
	for _, tr := range p.recvW {
		peer := p.grid.Rank(p.pn, p.pc, p.ph, tr.Peer)
		buf := cm.Recv(peer, tag)
		ext.T.InsertRegion(tensor.Region{
			Off:  []int{0, 0, p.ownH.Lo - ext.HLo, tr.Rng.Lo - ext.WLo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), tr.Rng.Len()},
		}, buf)
		cm.Release(buf)
	}
	// Phase H: full-width strips out of the (now W-extended) buffer.
	for _, tr := range p.sendH {
		peer := p.grid.Rank(p.pn, p.pc, tr.Peer, p.pw)
		buf := comm.GetBuf(p.nLoc * p.c * tr.Rng.Len() * p.extW())
		ext.T.ExtractRegionInto(tensor.Region{
			Off:  []int{0, 0, tr.Rng.Lo - ext.HLo, 0},
			Size: []int{p.nLoc, p.c, tr.Rng.Len(), p.extW()},
		}, buf)
		cm.SendNoCopy(peer, tag+1, buf)
	}
	for _, tr := range p.recvH {
		peer := p.grid.Rank(p.pn, p.pc, tr.Peer, p.pw)
		buf := cm.Recv(peer, tag+1)
		ext.T.InsertRegion(tensor.Region{
			Off:  []int{0, 0, tr.Rng.Lo - ext.HLo, 0},
			Size: []int{p.nLoc, p.c, tr.Rng.Len(), p.extW()},
		}, buf)
		cm.Release(buf)
	}
}

// RunReverse executes the adjoint of the forward exchange: margin
// contributions accumulated in ext (e.g. by a pooling backward scatter) are
// sent back and summed into their owners, and the owned region of ext —
// including received contributions — is written to local. Phase order is
// mirrored (H first, then W) so corner contributions route through the same
// intermediate ranks as in the forward exchange.
func (p *HaloPlan) RunReverse(ctx *Ctx, ext Ext, local *tensor.Tensor, tag int) {
	cm := ctx.C
	// Reverse phase H: send back the full-width row strips I held as halo.
	for _, tr := range p.recvH {
		peer := p.grid.Rank(p.pn, p.pc, tr.Peer, p.pw)
		buf := comm.GetBuf(p.nLoc * p.c * tr.Rng.Len() * p.extW())
		ext.T.ExtractRegionInto(tensor.Region{
			Off:  []int{0, 0, tr.Rng.Lo - ext.HLo, 0},
			Size: []int{p.nLoc, p.c, tr.Rng.Len(), p.extW()},
		}, buf)
		cm.SendNoCopy(peer, tag, buf)
	}
	for _, tr := range p.sendH {
		peer := p.grid.Rank(p.pn, p.pc, tr.Peer, p.pw)
		buf := cm.Recv(peer, tag)
		ext.T.AddRegion(tensor.Region{
			Off:  []int{0, 0, tr.Rng.Lo - ext.HLo, 0},
			Size: []int{p.nLoc, p.c, tr.Rng.Len(), p.extW()},
		}, buf)
		cm.Release(buf)
	}
	// Reverse phase W: send back column strips of owned rows.
	for _, tr := range p.recvW {
		peer := p.grid.Rank(p.pn, p.pc, p.ph, tr.Peer)
		buf := comm.GetBuf(p.nLoc * p.c * p.ownH.Len() * tr.Rng.Len())
		ext.T.ExtractRegionInto(tensor.Region{
			Off:  []int{0, 0, p.ownH.Lo - ext.HLo, tr.Rng.Lo - ext.WLo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), tr.Rng.Len()},
		}, buf)
		cm.SendNoCopy(peer, tag+1, buf)
	}
	for _, tr := range p.sendW {
		peer := p.grid.Rank(p.pn, p.pc, p.ph, tr.Peer)
		buf := cm.Recv(peer, tag+1)
		ext.T.AddRegion(tensor.Region{
			Off:  []int{0, 0, p.ownH.Lo - ext.HLo, tr.Rng.Lo - ext.WLo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), tr.Rng.Len()},
		}, buf)
		cm.Release(buf)
	}
	// Extract the accumulated owned region into the local shard.
	local.InsertRegion(
		tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{p.nLoc, p.c, p.ownH.Len(), p.ownW.Len()}},
		ext.T.ExtractRegion(tensor.Region{
			Off:  []int{0, 0, p.ownH.Lo - ext.HLo, p.ownW.Lo - ext.WLo},
			Size: []int{p.nLoc, p.c, p.ownH.Len(), p.ownW.Len()},
		}))
}

// forwardPlan builds the halo plan for the input of a convolution/pooling
// operator: x is blocked over inDist, outputs over the same grid with
// extents outH x outW, and block j of the output requires
// geom.RequiredIn(outBlock(j)) of the input (unclipped; out-of-range
// positions are materialized padding).
func forwardPlan(inDist dist.Dist, rank int, geom dist.ConvGeom, outH, outW int) *HaloPlan {
	nLoc := inDist.RangeN(rank).Len()
	cLoc := inDist.RangeC(rank).Len()
	reqHof := func(j int) dist.Range {
		return geom.RequiredIn(dist.BlockPartition(outH, inDist.Grid.PH, j))
	}
	reqWof := func(j int) dist.Range {
		return geom.RequiredIn(dist.BlockPartition(outW, inDist.Grid.PW, j))
	}
	return planExchange(inDist.Grid, rank, nLoc, cLoc, inDist.H, inDist.W,
		inDist.RangeH(rank), inDist.RangeW(rank), reqHof, reqWof)
}

// backwardPlan builds the halo plan for the output gradient dy: dy is
// blocked over outDist, and computing dx on input block j requires
// geom.RequiredBwd(inBlock(j)) of dy (clipped to the output extent).
func backwardPlan(outDist dist.Dist, rank int, geom dist.ConvGeom, inH, inW int) *HaloPlan {
	nLoc := outDist.RangeN(rank).Len()
	cLoc := outDist.RangeC(rank).Len()
	reqHof := func(j int) dist.Range {
		return geom.RequiredBwd(dist.BlockPartition(inH, outDist.Grid.PH, j), outDist.H)
	}
	reqWof := func(j int) dist.Range {
		return geom.RequiredBwd(dist.BlockPartition(inW, outDist.Grid.PW, j), outDist.W)
	}
	return planExchange(outDist.Grid, rank, nLoc, cLoc, outDist.H, outDist.W,
		outDist.RangeH(rank), outDist.RangeW(rank), reqHof, reqWof)
}
