package perfmodel

import (
	"repro/internal/dist"
)

// ConvSpec is the global description of one convolutional layer plus the
// mini-batch size: the (N, C, H, W, F) five dimensions of Section I.
type ConvSpec struct {
	N, C, H, W, F int
	Geom          dist.ConvGeom
}

// localDims returns the largest shard's local dimensions under grid
// (rank 0 holds the largest blocks by construction of BlockPartition).
func (s ConvSpec) localDims(grid dist.Grid) (n, oh, ow, ih, iw int) {
	outH, outW := s.Geom.OutSize(s.H), s.Geom.OutSize(s.W)
	n = dist.BlockPartition(s.N, grid.PN, 0).Len()
	oh = dist.BlockPartition(outH, grid.PH, 0).Len()
	ow = dist.BlockPartition(outW, grid.PW, 0).Len()
	ih = dist.BlockPartition(s.H, grid.PH, 0).Len()
	iw = dist.BlockPartition(s.W, grid.PW, 0).Len()
	return
}

// ConvCompute returns the model's local kernel times: C (forward, Eq. 1),
// Cx (backward-data, Eq. 3) and Cw (backward-filter, Eq. 2) for the local
// shard under grid — the C(n,c,h,w,f) empirical estimates of Section V-A.
func (m Machine) ConvCompute(s ConvSpec, grid dist.Grid) (c, cx, cw float64) {
	n, oh, ow, ih, iw := s.localDims(grid)
	k := float64(s.Geom.K)
	flops := 2 * float64(n) * float64(s.C) * k * k * float64(oh) * float64(ow) * float64(s.F)
	inB := 4 * float64(n) * float64(s.C) * float64(ih) * float64(iw)
	outB := 4 * float64(n) * float64(s.F) * float64(oh) * float64(ow)
	wB := 4 * float64(s.F) * float64(s.C) * k * k
	sp := float64(oh) * float64(ow)
	c = m.kernelTime(flops, inB+outB+wB, sp)
	// Backward-data reads dy and w, writes dx; backward-filter reads x and
	// dy, writes dw. Flop counts match the forward pass.
	cx = m.kernelTime(flops, outB+wB+inB, float64(ih)*float64(iw))
	cw = m.kernelTime(flops, inB+outB+wB, sp)
	return
}

// linkKinds reports whether W-direction and H-direction halo neighbors live
// on the same node, given that a spatial group is a contiguous block of
// ranks packed pw-fastest onto GPUsPerNode-GPU nodes: e.g. 2x2 spatial
// groups fit in a node (all intra), 4x2 groups put W pairs on a node but H
// neighbors across nodes — the "both intra- and inter-node communication"
// regime of Section VI-B1.
func (m Machine) linkKinds(grid dist.Grid) (wIntra, hIntra bool) {
	g := m.GPUsPerNode
	wIntra = grid.PW <= g && g%grid.PW == 0
	sp := grid.SpatialWays()
	hIntra = sp <= g && g%sp == 0
	if grid.PW == 1 {
		wIntra = true
	}
	if grid.PH == 1 {
		hIntra = true
	}
	return
}

// HaloTime prices one halo exchange with the paper's Section V-A formula:
// two east/west messages of O*n*c*h_loc words, two north/south messages of
// O*n*c*w_loc words, and four corner messages of O^2*n*c words. Messages in
// a direction are skipped when that dimension is not split.
func (m Machine) HaloTime(s ConvSpec, grid dist.Grid) float64 {
	o := s.Geom.K / 2
	if o == 0 {
		return 0
	}
	n, _, _, ih, iw := s.localDims(grid)
	wIntra, hIntra := m.linkKinds(grid)
	t := 0.0
	words := float64(o) * float64(n) * float64(s.C)
	if grid.PW > 1 {
		t += 2 * m.SendRecv(4*words*float64(ih), wIntra)
	}
	if grid.PH > 1 {
		t += 2 * m.SendRecv(4*words*float64(iw), hIntra)
	}
	if grid.PW > 1 && grid.PH > 1 {
		t += 4 * m.SendRecv(4*float64(o)*words, wIntra && hIntra)
	}
	return t
}

// LayerCost is the per-layer cost decomposition of Section V-A.
type LayerCost struct {
	FP  float64 // forward propagation, including (possibly overlapped) halo
	BPx float64 // backward-data incl. its halo exchange
	BPw float64 // backward-filter (no halo needed)
	BPa float64 // weight-gradient allreduce (overlapped at network level)

	HaloFwd float64 // raw halo exchange times, for reporting
	HaloBwd float64
}

// ConvLayerCost evaluates the performance model for one convolutional layer
// under the given decomposition. With overlap enabled, the forward halo
// exchange hides behind the interior convolution and the backward dy halo
// exchange hides behind the filter-gradient convolution (Section IV-A); the
// allreduce is reported separately for the network-level greedy overlap.
func (m Machine) ConvLayerCost(s ConvSpec, grid dist.Grid, overlap bool) LayerCost {
	c, cx, cw := m.ConvCompute(s, grid)
	halo := m.HaloTime(s, grid)
	spans := grid.Size() > m.GPUsPerNode
	ar := m.Allreduce(s.F*s.C*s.Geom.K*s.Geom.K, grid.Size(), spans)
	lc := LayerCost{HaloFwd: halo, HaloBwd: halo, BPa: ar}
	if overlap {
		lc.FP = maxf(c, halo)
		lc.BPw = maxf(cw, halo) // dy exchange hidden under filter conv
		lc.BPx = cx
	} else {
		lc.FP = c + halo
		lc.BPw = cw
		lc.BPx = cx + halo
	}
	return lc
}

// ConvPlacedCost evaluates the performance model for one convolutional
// layer under a full Placement. Replicated-weight placements delegate to
// ConvLayerCost; channel-split placements price the Section III-D
// formulations: local kernels scaled by the weight slice, plus the forward
// activation allreduce (channel-parallel) or input allgather + backward
// data allreduce (filter-parallel) over the PC-rank channel group, and the
// weight-gradient allreduce over the PN sample peers.
func (m Machine) ConvPlacedCost(s ConvSpec, pl dist.Placement, overlap bool) LayerCost {
	pl = pl.Norm()
	g := pl.Grid
	pc := g.ChannelWays()
	if pc == 1 || pl.Split == dist.SplitNone {
		return m.ConvLayerCost(s, g, overlap)
	}
	// Channel-split placements keep the spatial dimensions whole; rank 0's
	// blocks are the largest.
	nLoc := dist.BlockPartition(s.N, g.PN, 0).Len()
	cLoc := dist.BlockPartition(s.C, pc, 0).Len()
	fLoc := dist.BlockPartition(s.F, pc, 0).Len()
	outH, outW := s.Geom.OutSize(s.H), s.Geom.OutSize(s.W)
	grid1 := dist.Grid{PN: g.PN, PH: 1, PW: 1}
	// The channel group is a contiguous rank block; the sample peers stride
	// across the whole grid.
	spansChan := pc > m.GPUsPerNode
	spansPeers := g.Size() > m.GPUsPerNode
	k := s.Geom.K
	ls := s
	var lc LayerCost
	switch pl.Split {
	case dist.SplitChannel:
		ls.C = cLoc
		c, cx, cw := m.ConvCompute(ls, grid1)
		actWords := nLoc * s.F * outH * outW
		// The channel sum completes with a reduce-scatter: each rank needs
		// only its own filter block of the output (the paper's suggestion,
		// comm.ReduceScatterStableSlabs) — half the allreduce's wire volume.
		lc.FP = c + m.ReduceScatter(actWords, pc, spansChan)
		lc.BPx = cx + m.Allgather(actWords, pc, spansChan) // assemble the full dy
		lc.BPw = cw
		lc.BPa = m.Allreduce(s.F*cLoc*k*k, g.PN, spansPeers)
	case dist.SplitFilter:
		ls.F = fLoc
		c, cx, cw := m.ConvCompute(ls, grid1)
		inWords := nLoc * s.C * s.H * s.W
		lc.FP = c + m.Allgather(inWords, pc, spansChan) // assemble the full input
		// The partial-dx sum over filter blocks likewise delivers only this
		// rank's channel slice via reduce-scatter.
		lc.BPx = cx + m.ReduceScatter(inWords, pc, spansChan)
		lc.BPw = cw
		lc.BPa = m.Allreduce(fLoc*s.C*k*k, g.PN, spansPeers)
	}
	return lc
}

// PoolLayerCost models a pooling layer: a memory-bound kernel plus the same
// halo exchange structure as convolution. Channel-split grids scale the
// local work by this rank's channel block (pooling is channel-local).
func (m Machine) PoolLayerCost(s ConvSpec, grid dist.Grid, overlap bool) LayerCost {
	n, oh, ow, ih, iw := s.localDims(grid)
	cl := dist.BlockPartition(s.C, grid.ChannelWays(), 0).Len()
	k := float64(s.Geom.K)
	flops := float64(n) * float64(cl) * k * k * float64(oh) * float64(ow)
	bytes := 4 * float64(n) * float64(cl) * (float64(ih)*float64(iw) + float64(oh)*float64(ow))
	t := m.kernelTime(flops, bytes, float64(oh)*float64(ow))
	halo := m.HaloTime(s, grid)
	lc := LayerCost{HaloFwd: halo, HaloBwd: halo}
	if overlap {
		lc.FP = maxf(t, halo)
		lc.BPx = maxf(t, halo)
	} else {
		lc.FP = t + halo
		lc.BPx = t + halo
	}
	return lc
}

// ElementwiseCost models batchnorm/ReLU/add: memory-bound passes over the
// local activations. The paper's model treats these as free and attributes
// its residual inaccuracy at extreme decompositions to exactly such
// lower-order terms (Section VI-B3); pricing them keeps the model honest at
// 16 GPUs/sample. passes is the number of full read+write sweeps.
func (m Machine) ElementwiseCost(s ConvSpec, grid dist.Grid, passes int) float64 {
	n := dist.BlockPartition(s.N, grid.PN, 0).Len()
	cl := dist.BlockPartition(s.C, grid.ChannelWays(), 0).Len()
	ih := dist.BlockPartition(s.H, grid.PH, 0).Len()
	iw := dist.BlockPartition(s.W, grid.PW, 0).Len()
	bytes := 2 * 4 * float64(n) * float64(cl) * float64(ih) * float64(iw)
	return float64(passes) * m.kernelTime(0, bytes, 1e12)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
