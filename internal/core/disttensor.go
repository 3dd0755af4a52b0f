// Package core implements the paper's primary contribution: distributed-
// memory convolution exploiting sample, spatial, and hybrid sample/spatial
// parallelism (Section III), together with the distributed tensor library
// of Section IV — halo exchanges with communication/computation overlap,
// distributed pooling, batch normalization, ReLU, data redistribution
// between distributions, and the channel/filter-parallel extensions of
// Section III-D.
//
// Every distributed operator exactly replicates its single-device
// counterpart in internal/kernels (up to floating-point accumulation
// order), which the test suite verifies by scattering inputs, running both
// paths, and comparing gathered results.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// DistTensor is one rank's shard of a global NCHW tensor under a blocked
// distribution: the partitioned-global-view data structure of Section IV.
type DistTensor struct {
	Dist  dist.Dist
	Rank  int
	Local *tensor.Tensor
}

// NewDistTensor allocates a zero shard for rank under d.
func NewDistTensor(d dist.Dist, rank int) DistTensor {
	s := d.LocalShape(rank)
	return DistTensor{Dist: d, Rank: rank, Local: tensor.New(s[0], s[1], s[2], s[3])}
}

// Owned is a buffer a layer owns: one rank's shard of a distribution at its
// capacity batch, allocated on first use and overwritten by the next step.
// Rows cuts it to a smaller batch without copying.
type Owned struct{ views []DistTensor }

// Rows returns rank's shard of d cut to its first n ≤ d.N samples: a prefix
// of the capacity buffer whose Dist.N is n. The first call allocates the
// buffer and builds the view of every batch, so later calls allocate
// nothing.
func (o *Owned) Rows(d dist.Dist, rank, n int) DistTensor {
	if o.views == nil {
		all := NewDistTensor(d, rank).Local
		s := all.Shape()
		o.views = make([]DistTensor, d.N+1)
		for m := 1; m <= d.N; m++ {
			dm := d
			dm.N = m
			rows := dm.RangeN(rank).Len()
			o.views[m] = DistTensor{Dist: dm, Rank: rank, Local: tensor.FromSlice(all.Data()[:rows*s[1]*s[2]*s[3]], rows, s[1], s[2], s[3])}
		}
	}
	return o.views[n]
}

// batchOf returns x's batch after checking that x is d cut to n ≤ d.N
// samples; whole also requires n == d.N.
func batchOf(x DistTensor, d dist.Dist, what string, whole bool) int {
	n := x.Dist.N
	if x.Dist.N = d.N; n < 1 || n > d.N || whole && n != d.N || !x.Dist.SameLayout(d) {
		panic(fmt.Sprintf("core: %s input %v at batch %d does not fit %v", what, x.Dist, n, d))
	}
	return n
}

// Scatter splits a global tensor into per-rank shards under d. It is the
// test/IO entry point (the data reader provides input "in the appropriate
// distribution for the first layer", Section III-B).
func Scatter(global *tensor.Tensor, d dist.Dist) []DistTensor {
	gs := global.Shape()
	if gs[0] != d.N || gs[1] != d.C || gs[2] != d.H || gs[3] != d.W {
		panic(fmt.Sprintf("core: global shape %v does not match distribution %v", gs, d))
	}
	shards := make([]DistTensor, d.Grid.Size())
	for r := range shards {
		sh := NewDistTensor(d, r)
		rn, rc, rh, rw := d.Block(r)
		sh.Local.InsertRegion(
			tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{rn.Len(), rc.Len(), rh.Len(), rw.Len()}},
			global.ExtractRegion(tensor.Region{
				Off:  []int{rn.Lo, rc.Lo, rh.Lo, rw.Lo},
				Size: []int{rn.Len(), rc.Len(), rh.Len(), rw.Len()},
			}))
		shards[r] = sh
	}
	return shards
}

// Ctx carries the per-rank communication state shared by the distributed
// layers of one network replica. Besides the full-grid communicator it
// holds the three axis-aligned sub-communicators the layers reduce over:
//
//   - Spatial: ranks sharing this rank's (sample, channel) group — the
//     group GlobalAvgPool and the spatial-statistics reductions span.
//   - Chan: ranks sharing this rank's (sample, spatial) position and
//     varying only along the channel axis — the group channel/filter-
//     parallel convolutions allreduce/allgather activations over. Its rank
//     order is the channel-block order (Chan.Rank() == pc).
//   - ChanPeers: ranks sharing this rank's channel block (same pc, any
//     sample/spatial position) — the group that holds identical copies of
//     channel-sharded parameters, so weight-gradient and batchnorm-
//     statistics reductions run over it. With PC == 1 it is the whole
//     grid, which reproduces the legacy replicated-parameter behaviour.
type Ctx struct {
	C         *comm.Comm // communicator over all grid ranks, grid-rank ordered
	Grid      dist.Grid
	Spatial   *comm.Comm // ranks sharing this rank's (pn, pc) group
	Chan      *comm.Comm // ranks sharing (pn, ph, pw), ordered by pc
	ChanPeers *comm.Comm // ranks sharing pc, ordered by (pn, ph, pw)
	Rank      int        // grid rank == C.Rank()

	nextTag int
}

// AllocTags reserves n point-to-point tags for a layer. Layer construction
// order is identical on every rank, so all ranks agree on the assignment.
func (ctx *Ctx) AllocTags(n int) int {
	t := ctx.nextTag
	ctx.nextTag += n
	if ctx.nextTag >= 1<<19 {
		panic("core: point-to-point tag space exhausted")
	}
	return t
}

// NewCtx builds the per-rank context: it must be called collectively by
// every rank of c, with c.Size() == grid.Size().
func NewCtx(c *comm.Comm, grid dist.Grid) *Ctx {
	return NewCtxAt(c, grid, 0)
}

// NewCtxAt is NewCtx with an explicit starting point-to-point tag, for
// networks that mix several grids over one communicator (a separate Ctx per
// grid, sharing the tag space). Collective over c.
func NewCtxAt(c *comm.Comm, grid dist.Grid, tagStart int) *Ctx {
	if c.Size() != grid.Size() {
		panic(fmt.Sprintf("core: communicator size %d != grid size %d", c.Size(), grid.Size()))
	}
	grid = grid.Norm()
	pn, pc, ph, pw := grid.Coords(c.Rank())
	sp := c.Split(pn*grid.PC+pc, c.Rank())
	ch := c.Split((pn*grid.PH+ph)*grid.PW+pw, c.Rank())
	peers := c.Split(pc, c.Rank())
	return &Ctx{C: c, Grid: grid, Spatial: sp, Chan: ch, ChanPeers: peers, Rank: c.Rank(), nextTag: tagStart}
}
