package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// grids exercised by the exactness tests: pure sample, pure spatial (1-D and
// 2-D), and hybrid sample/spatial parallelism.
var testGrids = []dist.Grid{
	{PN: 1, PH: 1, PW: 1},
	{PN: 2, PH: 1, PW: 1},
	{PN: 1, PH: 2, PW: 1},
	{PN: 1, PH: 1, PW: 2},
	{PN: 1, PH: 2, PW: 2},
	{PN: 2, PH: 2, PW: 1},
	{PN: 2, PH: 2, PW: 2},
	{PN: 1, PH: 4, PW: 1},
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, g := range testGrids {
		d := dist.Dist{Grid: g, N: 4, C: 3, H: 8, W: 8}
		x := tensor.New(d.N, d.C, d.H, d.W)
		x.FillRandN(1, 1)
		shards := Scatter(x, d)
		back := Gather(shards)
		if x.MaxAbsDiff(back) != 0 {
			t.Errorf("grid %v: scatter/gather not identity", g)
		}
	}
}

// runDistributed executes fn on every rank of a fresh world over grid g and
// returns nothing; fn collects results itself (under mu if shared).
func runDistributed(g dist.Grid, fn func(ctx *Ctx)) {
	w := comm.NewWorld(g.Size())
	w.Run(func(c *comm.Comm) {
		fn(NewCtx(c, g))
	})
}

// distConvCase runs a distributed convolution forward+backward over grid g
// and compares every result against the sequential kernels.
func checkDistConv(t *testing.T, g dist.Grid, n, c, h, wd, f int, geom dist.ConvGeom, overlap bool, algo kernels.ConvAlgo) {
	t.Helper()
	inD := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	if inD.Validate() != nil {
		return
	}
	oh, ow := geom.OutSize(h), geom.OutSize(wd)
	if oh < g.PH || ow < g.PW || oh <= 0 || ow <= 0 {
		return
	}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(7, 1)
	w := tensor.New(f, c, geom.K, geom.K)
	w.FillRandN(8, 0.5)
	bias := make([]float32, f)
	for i := range bias {
		bias[i] = 0.1 * float32(i+1)
	}
	dy := tensor.New(n, f, oh, ow)
	dy.FillRandN(9, 1)

	// Sequential reference.
	ySeq := tensor.New(n, f, oh, ow)
	kernels.ConvForward(x, w, bias, ySeq, geom.S, geom.Pad, kernels.ConvDirect)
	dxSeq := tensor.New(n, c, h, wd)
	kernels.ConvBackwardData(dy, w, dxSeq, geom.S, geom.Pad)
	dwSeq := tensor.New(f, c, geom.K, geom.K)
	kernels.ConvBackwardFilter(x, dy, dwSeq, geom.S, geom.Pad, false)
	dbSeq := make([]float32, f)
	kernels.BiasBackward(dy, dbSeq, false)

	// Distributed run.
	xShards := Scatter(x, inD)
	outD := dist.Dist{Grid: g, N: n, C: f, H: oh, W: ow}
	dyShards := Scatter(dy, outD)
	yOut := make([]DistTensor, g.Size())
	dxOut := make([]DistTensor, g.Size())
	dwOut := make([]*tensor.Tensor, g.Size())
	dbOut := make([][]float32, g.Size())
	var mu sync.Mutex
	runDistributed(g, func(ctx *Ctx) {
		l := NewConv(ctx, inD, f, geom, true)
		copy(l.W.Data(), w.Data())
		copy(l.Bias, bias)
		l.Overlap = overlap
		l.Algo = algo
		y := l.Forward(ctx, xShards[ctx.Rank])
		dx := l.Backward(ctx, dyShards[ctx.Rank])
		mu.Lock()
		yOut[ctx.Rank] = y
		dxOut[ctx.Rank] = dx
		dwOut[ctx.Rank] = l.DW
		dbOut[ctx.Rank] = l.DBias
		mu.Unlock()
	})

	if d := Gather(yOut).RelDiff(ySeq); d > 1e-4 {
		t.Errorf("grid %v geom %+v overlap=%v: forward rel diff %g", g, geom, overlap, d)
	}
	if d := Gather(dxOut).RelDiff(dxSeq); d > 1e-4 {
		t.Errorf("grid %v geom %+v overlap=%v: bwd-data rel diff %g", g, geom, overlap, d)
	}
	for r := 0; r < g.Size(); r++ {
		if d := dwOut[r].RelDiff(dwSeq); d > 1e-3 {
			t.Errorf("grid %v geom %+v overlap=%v rank %d: dw rel diff %g", g, geom, overlap, r, d)
		}
		for i := range dbSeq {
			if diff := float64(dbOut[r][i] - dbSeq[i]); diff > 1e-3 || diff < -1e-3 {
				t.Errorf("grid %v rank %d: dbias[%d] = %v, want %v", g, r, i, dbOut[r][i], dbSeq[i])
			}
		}
	}
}

func TestDistConv3x3SameAllGrids(t *testing.T) {
	for _, g := range testGrids {
		checkDistConv(t, g, 4, 3, 12, 12, 5, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false, kernels.ConvDirect)
	}
}

func TestDistConv3x3OverlapAllGrids(t *testing.T) {
	for _, g := range testGrids {
		checkDistConv(t, g, 4, 3, 12, 12, 5, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true, kernels.ConvAuto)
	}
}

func TestDistConvStride2AllGrids(t *testing.T) {
	// Mesh conv1_1 geometry (K=5 S=2 P=2), scaled down.
	for _, g := range testGrids {
		checkDistConv(t, g, 2, 3, 16, 16, 4, dist.ConvGeom{K: 5, S: 2, Pad: 2}, true, kernels.ConvAuto)
	}
}

func TestDistConvResNetConv1Geometry(t *testing.T) {
	// K=7 S=2 P=3 (ResNet-50 conv1), on a 32x32 input.
	for _, g := range []dist.Grid{{PN: 1, PH: 2, PW: 2}, {PN: 2, PH: 2, PW: 1}} {
		checkDistConv(t, g, 2, 3, 32, 32, 8, dist.ConvGeom{K: 7, S: 2, Pad: 3}, true, kernels.ConvAuto)
	}
}

func TestDistConv1x1NoHalo(t *testing.T) {
	// 1x1 convolutions need no halo exchange (res3b_branch2a geometry).
	for _, g := range testGrids {
		checkDistConv(t, g, 2, 6, 8, 8, 4, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true, kernels.ConvAuto)
	}
	// And the plan must actually be empty.
	g := dist.Grid{PN: 1, PH: 2, PW: 2}
	inD := dist.Dist{Grid: g, N: 2, C: 3, H: 8, W: 8}
	plan := forwardPlan(inD, 0, dist.ConvGeom{K: 1, S: 1, Pad: 0}, 8, 8)
	if len(plan.recvW)+len(plan.recvH)+len(plan.sendW)+len(plan.sendH) != 0 {
		t.Error("1x1 convolution generated halo transfers")
	}
	if plan.HaloVolume() != 0 {
		t.Error("1x1 convolution has nonzero halo volume")
	}
}

func TestDistConvUnevenPartition(t *testing.T) {
	// H=13 over 4 parts: blocks of 4,3,3,3 — exercises uneven halos.
	checkDistConv(t, dist.Grid{PN: 1, PH: 4, PW: 1}, 2, 2, 13, 9, 3, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true, kernels.ConvAuto)
	checkDistConv(t, dist.Grid{PN: 1, PH: 2, PW: 2}, 3, 2, 11, 13, 3, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false, kernels.ConvDirect)
}

func TestDistConvWideHaloMultiHop(t *testing.T) {
	// K=7 halo (3 rows) wider than a block (2 rows): multi-peer exchange.
	checkDistConv(t, dist.Grid{PN: 1, PH: 4, PW: 1}, 1, 2, 8, 8, 2, dist.ConvGeom{K: 7, S: 1, Pad: 3}, false, kernels.ConvDirect)
	checkDistConv(t, dist.Grid{PN: 1, PH: 4, PW: 1}, 1, 2, 8, 8, 2, dist.ConvGeom{K: 7, S: 1, Pad: 3}, true, kernels.ConvAuto)
}

func TestDistMaxPool(t *testing.T) {
	for _, g := range testGrids {
		for _, geom := range []dist.ConvGeom{{K: 2, S: 2, Pad: 0}, {K: 3, S: 2, Pad: 1}, {K: 3, S: 1, Pad: 1}} {
			n, c, h, wd := 2, 3, 12, 12
			inD := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
			oh, ow := geom.OutSize(h), geom.OutSize(wd)
			if oh < g.PH || ow < g.PW {
				continue
			}
			x := tensor.New(n, c, h, wd)
			x.FillRandN(11, 1)
			dy := tensor.New(n, c, oh, ow)
			dy.FillRandN(12, 1)

			ySeq := tensor.New(n, c, oh, ow)
			am := make([]int32, ySeq.Size())
			kernels.MaxPoolForward(x, ySeq, geom.K, geom.S, geom.Pad, am)
			dxSeq := tensor.New(n, c, h, wd)
			kernels.MaxPoolBackward(dy, am, dxSeq)

			outD := dist.Dist{Grid: g, N: n, C: c, H: oh, W: ow}
			xShards := Scatter(x, inD)
			dyShards := Scatter(dy, outD)
			yOut := make([]DistTensor, g.Size())
			dxOut := make([]DistTensor, g.Size())
			var mu sync.Mutex
			runDistributed(g, func(ctx *Ctx) {
				l := NewMaxPool(ctx, inD, geom)
				y := l.Forward(ctx, xShards[ctx.Rank])
				dx := l.Backward(ctx, dyShards[ctx.Rank])
				mu.Lock()
				yOut[ctx.Rank] = y
				dxOut[ctx.Rank] = dx
				mu.Unlock()
			})
			if d := Gather(yOut).MaxAbsDiff(ySeq); d != 0 {
				t.Errorf("grid %v geom %+v: maxpool forward diff %g", g, geom, d)
			}
			if d := Gather(dxOut).RelDiff(dxSeq); d > 1e-5 {
				t.Errorf("grid %v geom %+v: maxpool backward rel diff %g", g, geom, d)
			}
		}
	}
}

func TestDistBatchNormGlobalMatchesSequential(t *testing.T) {
	for _, g := range testGrids {
		n, c, h, wd := 4, 3, 8, 8
		d := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
		x := tensor.New(n, c, h, wd)
		x.FillRandN(13, 2)
		dy := tensor.New(n, c, h, wd)
		dy.FillRandN(14, 1)
		gamma := []float32{1.5, 0.5, 2}
		beta := []float32{0.1, -0.3, 0}

		// Sequential reference.
		count := n * h * wd
		sum := make([]float32, c)
		sumsq := make([]float32, c)
		kernels.BatchNormStats(x, sum, sumsq)
		mean := make([]float32, c)
		invstd := make([]float32, c)
		kernels.BatchNormMoments(sum, sumsq, count, 1e-5, mean, invstd)
		ySeq := tensor.New(n, c, h, wd)
		kernels.BatchNormForward(x, mean, invstd, gamma, beta, ySeq)
		dgSeq := make([]float32, c)
		dbSeq := make([]float32, c)
		kernels.BatchNormBackwardStats(x, dy, mean, invstd, dgSeq, dbSeq)
		dxSeq := tensor.New(n, c, h, wd)
		kernels.BatchNormBackwardData(x, dy, mean, invstd, gamma, dgSeq, dbSeq, count, dxSeq)

		xShards := Scatter(x, d)
		dyShards := Scatter(dy, d)
		yOut := make([]DistTensor, g.Size())
		dxOut := make([]DistTensor, g.Size())
		dgOut := make([][]float32, g.Size())
		var mu sync.Mutex
		runDistributed(g, func(ctx *Ctx) {
			l := NewBatchNorm(ctx, d, BatchNormGlobal)
			copy(l.Gamma, gamma)
			copy(l.Beta, beta)
			y := l.Forward(ctx, xShards[ctx.Rank])
			dx := l.Backward(ctx, dyShards[ctx.Rank])
			mu.Lock()
			yOut[ctx.Rank] = y
			dxOut[ctx.Rank] = dx
			dgOut[ctx.Rank] = l.DGamma
			mu.Unlock()
		})
		if diff := Gather(yOut).RelDiff(ySeq); diff > 1e-4 {
			t.Errorf("grid %v: batchnorm forward rel diff %g", g, diff)
		}
		if diff := Gather(dxOut).RelDiff(dxSeq); diff > 1e-3 {
			t.Errorf("grid %v: batchnorm backward rel diff %g", g, diff)
		}
		for r := 0; r < g.Size(); r++ {
			for i := range dgSeq {
				if d := float64(dgOut[r][i] - dgSeq[i]); d > 1e-2 || d < -1e-2 {
					t.Errorf("grid %v rank %d: dgamma[%d] = %v, want %v", g, r, i, dgOut[r][i], dgSeq[i])
				}
			}
		}
	}
}

func TestDistBatchNormLocalDiffersUnderSplit(t *testing.T) {
	// Sanity check that the local variant really uses local statistics: on a
	// split grid with heterogeneous shards it must differ from sequential.
	g := dist.Grid{PN: 2, PH: 1, PW: 1}
	n, c, h, wd := 4, 2, 4, 4
	d := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(15, 1)
	// Make the two sample groups statistically different.
	for i := 0; i < x.Size()/2; i++ {
		x.Data()[i] += 5
	}
	sum := make([]float32, c)
	sumsq := make([]float32, c)
	kernels.BatchNormStats(x, sum, sumsq)
	mean := make([]float32, c)
	invstd := make([]float32, c)
	kernels.BatchNormMoments(sum, sumsq, n*h*wd, 1e-5, mean, invstd)
	ySeq := tensor.New(n, c, h, wd)
	gamma := []float32{1, 1}
	beta := []float32{0, 0}
	kernels.BatchNormForward(x, mean, invstd, gamma, beta, ySeq)

	xShards := Scatter(x, d)
	yOut := make([]DistTensor, g.Size())
	var mu sync.Mutex
	runDistributed(g, func(ctx *Ctx) {
		l := NewBatchNorm(ctx, d, BatchNormLocal)
		y := l.Forward(ctx, xShards[ctx.Rank])
		mu.Lock()
		yOut[ctx.Rank] = y
		mu.Unlock()
	})
	if d := Gather(yOut).MaxAbsDiff(ySeq); d < 1e-3 {
		t.Errorf("local batchnorm unexpectedly matches global statistics (diff %g)", d)
	}
}

func TestDistGlobalAvgPool(t *testing.T) {
	for _, g := range testGrids {
		n, c, h, wd := 4, 3, 8, 8
		d := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
		x := tensor.New(n, c, h, wd)
		x.FillRandN(16, 1)
		ySeq := tensor.New(n, c, 1, 1)
		kernels.GlobalAvgPoolForward(x, ySeq)

		xShards := Scatter(x, d)
		var mu sync.Mutex
		results := make([]DistTensor, g.Size())
		dxOut := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			l := NewGlobalAvgPool(ctx, d)
			y := l.Forward(ctx, xShards[ctx.Rank])
			// Backward with dy = y (arbitrary values, replicated in group).
			dx := l.Backward(ctx, y)
			mu.Lock()
			results[ctx.Rank] = y
			dxOut[ctx.Rank] = dx
			mu.Unlock()
		})
		// Each rank's [nLoc, C] values must match the sequential means of
		// the samples it owns.
		for r := 0; r < g.Size(); r++ {
			rn := d.RangeN(r)
			for nl := 0; nl < rn.Len(); nl++ {
				for ci := 0; ci < c; ci++ {
					got := results[r].Local.At4(nl, ci, 0, 0)
					want := ySeq.At4(rn.Lo+nl, ci, 0, 0)
					if diff := float64(got - want); diff > 1e-4 || diff < -1e-4 {
						t.Errorf("grid %v rank %d: avgpool(%d,%d) = %v, want %v", g, r, nl, ci, got, want)
					}
				}
			}
		}
		// Backward: dx elements must equal dy/(H*W) for the right sample.
		dxG := Gather(dxOut)
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				want := ySeq.At4(ni, ci, 0, 0) / float32(h*wd)
				if diff := float64(dxG.At4(ni, ci, 3, 5) - want); diff > 1e-5 || diff < -1e-5 {
					t.Errorf("grid %v: avgpool backward (%d,%d) = %v, want %v", g, ni, ci, dxG.At4(ni, ci, 3, 5), want)
				}
			}
		}
	}
}

func TestDistReLU(t *testing.T) {
	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	d := dist.Dist{Grid: g, N: 2, C: 2, H: 6, W: 6}
	x := tensor.New(2, 2, 6, 6)
	x.FillRandN(17, 1)
	dy := tensor.New(2, 2, 6, 6)
	dy.FillRandN(18, 1)
	ySeq := tensor.New(2, 2, 6, 6)
	kernels.ReLUForward(x, ySeq)
	dxSeq := tensor.New(2, 2, 6, 6)
	kernels.ReLUBackward(x, dy, dxSeq)

	xs := Scatter(x, d)
	dys := Scatter(dy, d)
	yOut := make([]DistTensor, g.Size())
	dxOut := make([]DistTensor, g.Size())
	var mu sync.Mutex
	runDistributed(g, func(ctx *Ctx) {
		l := NewReLU(d)
		y := l.Forward(ctx, xs[ctx.Rank])
		dx := l.Backward(ctx, dys[ctx.Rank])
		mu.Lock()
		yOut[ctx.Rank] = y
		dxOut[ctx.Rank] = dx
		mu.Unlock()
	})
	if Gather(yOut).MaxAbsDiff(ySeq) != 0 || Gather(dxOut).MaxAbsDiff(dxSeq) != 0 {
		t.Error("distributed ReLU differs from sequential")
	}
}

func TestRedistributeBetweenGrids(t *testing.T) {
	// Sample-parallel {4,1,1} -> hybrid {1,2,2} and back.
	gA := dist.Grid{PN: 4, PH: 1, PW: 1}
	gB := dist.Grid{PN: 1, PH: 2, PW: 2}
	n, c, h, wd := 4, 3, 8, 8
	dA := dist.Dist{Grid: gA, N: n, C: c, H: h, W: wd}
	dB := dist.Dist{Grid: gB, N: n, C: c, H: h, W: wd}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(19, 1)
	shards := Scatter(x, dA)
	outB := make([]DistTensor, 4)
	outA := make([]DistTensor, 4)
	var mu sync.Mutex
	runDistributed(gA, func(ctx *Ctx) {
		b := Redistribute(ctx, shards[ctx.Rank], dB)
		a := Redistribute(ctx, b, dA)
		mu.Lock()
		outB[ctx.Rank] = b
		outA[ctx.Rank] = a
		mu.Unlock()
	})
	if d := Gather(outB).MaxAbsDiff(x); d != 0 {
		t.Errorf("redistribute A->B lost data (diff %g)", d)
	}
	if d := Gather(outA).MaxAbsDiff(x); d != 0 {
		t.Errorf("round trip A->B->A lost data (diff %g)", d)
	}
}

func TestShuffleVolumeZeroForSameDist(t *testing.T) {
	d := dist.Dist{Grid: dist.Grid{PN: 2, PH: 2, PW: 1}, N: 4, C: 3, H: 8, W: 8}
	for r := 0; r < 4; r++ {
		if v := ShuffleVolume(d, d, r); v != 0 {
			t.Errorf("rank %d: shuffle volume %d for identical distributions", r, v)
		}
	}
}

func TestShuffleVolumeConservation(t *testing.T) {
	// Total sent volume equals total tensor elements not staying in place.
	dA := dist.Dist{Grid: dist.Grid{PN: 4, PH: 1, PW: 1}, N: 4, C: 2, H: 6, W: 6}
	dB := dist.Dist{Grid: dist.Grid{PN: 1, PH: 2, PW: 2}, N: 4, C: 2, H: 6, W: 6}
	total := 0
	for r := 0; r < 4; r++ {
		total += ShuffleVolume(dA, dB, r)
	}
	// Each element moves unless its owner coincides; with these grids rank r
	// keeps the elements where sample-block r intersects quadrant r.
	stay := 0
	for r := 0; r < 4; r++ {
		on := dA.RangeN(r).Intersect(dB.RangeN(r))
		oh := dA.RangeH(r).Intersect(dB.RangeH(r))
		ow := dA.RangeW(r).Intersect(dB.RangeW(r))
		stay += on.Len() * 2 * oh.Len() * ow.Len()
	}
	if total != 4*2*6*6-stay {
		t.Errorf("shuffle volume %d, want %d", total, 4*2*6*6-stay)
	}
}

// Property: distributed convolution matches sequential for random shapes,
// geometries, and grids.
func TestQuickDistConvMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping randomized distributed conv in -short mode")
	}
	gridChoices := []dist.Grid{
		{PN: 1, PH: 2, PW: 1}, {PN: 1, PH: 1, PW: 2}, {PN: 2, PH: 1, PW: 1},
		{PN: 1, PH: 2, PW: 2}, {PN: 2, PH: 2, PW: 1}, {PN: 1, PH: 3, PW: 1},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gridChoices[rng.Intn(len(gridChoices))]
		k := 1 + 2*rng.Intn(3)
		s := 1 + rng.Intn(2)
		pad := rng.Intn(k/2 + 1)
		geom := dist.ConvGeom{K: k, S: s, Pad: pad}
		h := 8 + rng.Intn(8)
		wd := 8 + rng.Intn(8)
		n := g.PN * (1 + rng.Intn(2))
		c := 1 + rng.Intn(3)
		fo := 1 + rng.Intn(4)
		oh, ow := geom.OutSize(h), geom.OutSize(wd)
		if oh < g.PH || ow < g.PW {
			return true
		}
		inD := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
		if inD.Validate() != nil {
			return true
		}
		x := tensor.New(n, c, h, wd)
		x.FillRandN(seed, 1)
		w := tensor.New(fo, c, k, k)
		w.FillRandN(seed+1, 0.5)
		ySeq := tensor.New(n, fo, oh, ow)
		kernels.ConvForward(x, w, nil, ySeq, s, pad, kernels.ConvDirect)

		xShards := Scatter(x, inD)
		yOut := make([]DistTensor, g.Size())
		overlap := rng.Intn(2) == 0
		var mu sync.Mutex
		runDistributed(g, func(ctx *Ctx) {
			l := NewConv(ctx, inD, fo, geom, false)
			copy(l.W.Data(), w.Data())
			l.Overlap = overlap
			y := l.Forward(ctx, xShards[ctx.Rank])
			mu.Lock()
			yOut[ctx.Rank] = y
			mu.Unlock()
		})
		return Gather(yOut).RelDiff(ySeq) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Gather reassembles the global tensor from all shards: the oracle side of
// every distributed-layer test.
func Gather(shards []DistTensor) *tensor.Tensor {
	d := shards[0].Dist
	global := tensor.New(d.N, d.C, d.H, d.W)
	for _, sh := range shards {
		rn, rc, rh, rw := sh.ownedRegion()
		global.InsertRegion(
			tensor.Region{Off: []int{rn.Lo, rc.Lo, rh.Lo, rw.Lo}, Size: []int{rn.Len(), rc.Len(), rh.Len(), rw.Len()}},
			sh.Local.ExtractRegion(tensor.Region{
				Off:  []int{0, 0, 0, 0},
				Size: []int{rn.Len(), rc.Len(), rh.Len(), rw.Len()},
			}))
	}
	return global
}

// HaloVolume returns the number of elements this rank receives in the
// exchange — the quantity the performance model prices (Section V-A).
func (p *HaloPlan) HaloVolume() int {
	v := 0
	for _, tr := range p.recvW {
		v += p.nLoc * p.c * p.ownH.Len() * tr.Rng.Len()
	}
	for _, tr := range p.recvH {
		v += p.nLoc * p.c * tr.Rng.Len() * p.extW()
	}
	return v
}
