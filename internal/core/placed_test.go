package core

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// channelGrids are the 4-axis grids the placed-conv tests exercise: pure
// channel splits and channel x sample hybrids.
var channelGrids = []dist.Grid{
	{PN: 1, PC: 1, PH: 1, PW: 1},
	{PN: 1, PC: 2, PH: 1, PW: 1},
	{PN: 1, PC: 4, PH: 1, PW: 1},
	{PN: 2, PC: 2, PH: 1, PW: 1},
}

func cloneTensor(t *tensor.Tensor) *tensor.Tensor {
	c := tensor.New(t.Shape()...)
	copy(c.Data(), t.Data())
	return c
}

// runPlacedConv runs one placed conv layer (channel- or filter-parallel)
// over grid g and compares gathered outputs, error signals, and gradient
// shards against the sequential kernels.
func runPlacedConv(t *testing.T, g dist.Grid, filter, bias bool) {
	t.Helper()
	n, c, h, wd, f := 4, 8, 8, 8, 6
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(23, 1)
	w := tensor.New(f, c, 3, 3)
	w.FillRandN(24, 0.5)
	var b []float32
	if bias {
		b = []float32{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}
	}
	dy := tensor.New(n, f, h, wd)
	dy.FillRandN(25, 1)

	ySeq := tensor.New(n, f, h, wd)
	kernels.ConvForward(x, w, b, ySeq, 1, 1, kernels.ConvDirect)
	dxSeq := tensor.New(n, c, h, wd)
	kernels.ConvBackwardData(dy, w, dxSeq, 1, 1)
	dwSeq := tensor.New(f, c, 3, 3)
	kernels.ConvBackwardFilter(x, dy, dwSeq, 1, 1, false)
	dbSeq := make([]float32, f)
	kernels.BiasBackward(dy, dbSeq, false)

	inDist := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	outDist := dist.Dist{Grid: g, N: n, C: f, H: h, W: wd}
	xs := Scatter(x, inDist)
	dys := Scatter(dy, outDist)

	p := g.Size()
	ys := make([]DistTensor, p)
	dxs := make([]DistTensor, p)
	dws := make([]*tensor.Tensor, p)
	dbs := make([][]float32, p)
	crs := make([]dist.Range, p)
	frs := make([]dist.Range, p)
	var mu sync.Mutex
	world := comm.NewWorld(p)
	world.Run(func(cm *comm.Comm) {
		ctx := NewCtx(cm, g)
		var y, dx DistTensor
		var dw *tensor.Tensor
		var db []float32
		var cr, fr dist.Range
		if filter {
			l := NewFilterParallelConv(ctx, inDist, f, geom, bias)
			cr, fr = l.CRange, l.FRange
			l.W.InsertRegion(
				tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{fr.Len(), c, 3, 3}},
				w.ExtractRegion(tensor.Region{Off: []int{fr.Lo, 0, 0, 0}, Size: []int{fr.Len(), c, 3, 3}}))
			if bias {
				copy(l.Bias, b[fr.Lo:fr.Hi])
			}
			y = l.Forward(ctx, xs[ctx.Rank])
			dx = l.Backward(ctx, dys[ctx.Rank])
			dw, db = l.DW, l.DBias
		} else {
			l := NewChannelParallelConv(ctx, inDist, f, geom, bias)
			cr, fr = l.CRange, l.FRange
			l.W.InsertRegion(
				tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{f, cr.Len(), 3, 3}},
				w.ExtractRegion(tensor.Region{Off: []int{0, cr.Lo, 0, 0}, Size: []int{f, cr.Len(), 3, 3}}))
			if bias {
				copy(l.Bias, b[fr.Lo:fr.Hi])
			}
			y = l.Forward(ctx, xs[ctx.Rank])
			dx = l.Backward(ctx, dys[ctx.Rank])
			dw, db = l.DW, l.DBias
		}
		mu.Lock()
		ys[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: cloneTensor(y.Local)}
		dxs[ctx.Rank] = DistTensor{Dist: dx.Dist, Rank: dx.Rank, Local: cloneTensor(dx.Local)}
		dws[ctx.Rank] = cloneTensor(dw)
		if db != nil {
			dbs[ctx.Rank] = append([]float32(nil), db...)
		}
		crs[ctx.Rank], frs[ctx.Rank] = cr, fr
		mu.Unlock()
	})

	if d := Gather(ys).RelDiff(ySeq); d > 1e-4 {
		t.Errorf("grid %v: gathered y rel diff %g", g, d)
	}
	if d := Gather(dxs).RelDiff(dxSeq); d > 1e-4 {
		t.Errorf("grid %v: gathered dx rel diff %g", g, d)
	}
	for r := 0; r < p; r++ {
		var want []float32
		if filter {
			fr := frs[r]
			want = dwSeq.ExtractRegion(tensor.Region{Off: []int{fr.Lo, 0, 0, 0}, Size: []int{fr.Len(), c, 3, 3}})
		} else {
			cr := crs[r]
			want = dwSeq.ExtractRegion(tensor.Region{Off: []int{0, cr.Lo, 0, 0}, Size: []int{f, cr.Len(), 3, 3}})
		}
		got := dws[r].Data()
		for i := range want {
			if d := float64(got[i] - want[i]); d > 1e-3 || d < -1e-3 {
				t.Fatalf("grid %v rank %d: dw[%d] = %v, want %v", g, r, i, got[i], want[i])
			}
		}
		if bias {
			wantB := dbSeq[frs[r].Lo:frs[r].Hi]
			for i := range wantB {
				if d := float64(dbs[r][i] - wantB[i]); d > 1e-3 || d < -1e-3 {
					t.Fatalf("grid %v rank %d: dbias[%d] = %v, want %v", g, r, i, dbs[r][i], wantB[i])
				}
			}
		}
	}
}

func TestChannelParallelConvMatchesSequential(t *testing.T) {
	for _, g := range channelGrids {
		runPlacedConv(t, g, false, false)
	}
	runPlacedConv(t, dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, false, true)
}

func TestFilterParallelConvMatchesSequential(t *testing.T) {
	for _, g := range channelGrids {
		runPlacedConv(t, g, true, false)
	}
	runPlacedConv(t, dist.Grid{PN: 2, PC: 2, PH: 1, PW: 1}, true, true)
}

// TestPlacedConvDeterministic: two identical runs produce bitwise-identical
// outputs and gradients — the stable reductions pin the association order
// regardless of scheduling.
func TestPlacedConvDeterministic(t *testing.T) {
	g := dist.Grid{PN: 2, PC: 2, PH: 1, PW: 1}
	n, c, h, wd, f := 4, 6, 6, 6, 4
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(31, 1)
	w := tensor.New(f, c, 3, 3)
	w.FillRandN(32, 0.5)
	dy := tensor.New(n, f, h, wd)
	dy.FillRandN(33, 1)
	inDist := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	outDist := dist.Dist{Grid: g, N: n, C: f, H: h, W: wd}

	run := func(filter bool) (*tensor.Tensor, *tensor.Tensor) {
		xs := Scatter(x, inDist)
		dys := Scatter(dy, outDist)
		p := g.Size()
		ys := make([]DistTensor, p)
		dxs := make([]DistTensor, p)
		var mu sync.Mutex
		world := comm.NewWorld(p)
		world.Run(func(cm *comm.Comm) {
			ctx := NewCtx(cm, g)
			var y, dx DistTensor
			if filter {
				l := NewFilterParallelConv(ctx, inDist, f, geom, false)
				l.W.InsertRegion(
					tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{l.FRange.Len(), c, 3, 3}},
					w.ExtractRegion(tensor.Region{Off: []int{l.FRange.Lo, 0, 0, 0}, Size: []int{l.FRange.Len(), c, 3, 3}}))
				y = l.Forward(ctx, xs[ctx.Rank])
				dx = l.Backward(ctx, dys[ctx.Rank])
			} else {
				l := NewChannelParallelConv(ctx, inDist, f, geom, false)
				l.W.InsertRegion(
					tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}},
					w.ExtractRegion(tensor.Region{Off: []int{0, l.CRange.Lo, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}}))
				y = l.Forward(ctx, xs[ctx.Rank])
				dx = l.Backward(ctx, dys[ctx.Rank])
			}
			mu.Lock()
			ys[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: cloneTensor(y.Local)}
			dxs[ctx.Rank] = DistTensor{Dist: dx.Dist, Rank: dx.Rank, Local: cloneTensor(dx.Local)}
			mu.Unlock()
		})
		return Gather(ys), Gather(dxs)
	}

	for _, filter := range []bool{false, true} {
		y1, dx1 := run(filter)
		y2, dx2 := run(filter)
		for i, v := range y1.Data() {
			if y2.Data()[i] != v {
				t.Fatalf("filter=%v: y[%d] differs across identical runs", filter, i)
			}
		}
		for i, v := range dx1.Data() {
			if dx2.Data()[i] != v {
				t.Fatalf("filter=%v: dx[%d] differs across identical runs", filter, i)
			}
		}
	}
}

// TestPlacedConvZeroAllocsWarm: warm Forward/Backward of both placed conv
// layers allocate nothing — all step-transient buffers come from the
// workspace arena acquired at construction, and the channel collectives run
// on pooled message buffers.
func TestPlacedConvZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	n, c, h, wd, f := 2, 8, 8, 8, 4
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	inDist := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	outDist := dist.Dist{Grid: g, N: n, C: f, H: h, W: wd}
	x := tensor.New(n, c, h, wd)
	x.FillRandN(41, 1)
	dy := tensor.New(n, f, h, wd)
	dy.FillRandN(42, 1)
	xs := Scatter(x, inDist)
	dys := Scatter(dy, outDist)

	for _, filter := range []bool{false, true} {
		var got float64
		var mu sync.Mutex
		world := comm.NewWorld(g.Size())
		world.Run(func(cm *comm.Comm) {
			ctx := NewCtx(cm, g)
			var step func()
			if filter {
				l := NewFilterParallelConv(ctx, inDist, f, geom, true)
				l.W.FillRandN(43, 0.5)
				step = func() {
					l.Forward(ctx, xs[ctx.Rank])
					l.Backward(ctx, dys[ctx.Rank])
				}
			} else {
				l := NewChannelParallelConv(ctx, inDist, f, geom, true)
				l.W.FillRandN(44, 0.5)
				step = func() {
					l.Forward(ctx, xs[ctx.Rank])
					l.Backward(ctx, dys[ctx.Rank])
				}
			}
			const warm, runs = 5, 10
			for i := 0; i < warm; i++ {
				step()
			}
			if ctx.Rank == 0 {
				a := testing.AllocsPerRun(runs, step)
				mu.Lock()
				got = a
				mu.Unlock()
			} else {
				for i := 0; i < runs+1; i++ {
					step()
				}
			}
		})
		if got != 0 {
			t.Errorf("filter=%v: %v allocs per warm step, want 0", filter, got)
		}
	}
}
