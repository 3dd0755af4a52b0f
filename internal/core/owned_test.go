package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// Every layer owns its output and error signal, so once warm a training
// step through ReLU, Add, MaxPool, GlobalAvgPool and BatchNorm, and a
// forward through their forward-only forms, allocates nothing.
func TestLayersZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := dist.Grid{PN: 1, PC: 1, PH: 1, PW: 1}
	n, c, h, wd := 2, 4, 8, 8
	d := dist.Dist{Grid: g, N: n, C: c, H: h, W: wd}
	geom := dist.ConvGeom{K: 3, S: 2, Pad: 1}
	x := Scatter(randTensor(51, n, c, h, wd), d)[0]
	dy := Scatter(randTensor(52, n, c, h, wd), d)[0]
	pooled := dist.Dist{Grid: g, N: n, C: c, H: geom.OutSize(h), W: geom.OutSize(wd)}
	dyPool := Scatter(randTensor(53, n, c, pooled.H, pooled.W), pooled)[0]
	dyGAP := Scatter(randTensor(54, n, c, 1, 1), dist.Dist{Grid: g, N: n, C: c, H: 1, W: 1})[0]

	comm.NewWorld(1).Run(func(cm *comm.Comm) {
		ctx := NewCtx(cm, g)
		relu, add := NewReLU(d), NewAdd(d)
		pool := NewMaxPool(ctx, d, geom, false)
		gap := NewGlobalAvgPool(ctx, d, false)
		bn := NewBatchNorm(ctx, d, BatchNormGlobal)
		poolInf := NewMaxPool(ctx, d, geom, true)
		gapInf := NewGlobalAvgPool(ctx, d, true)
		bnInf := NewBatchNormInference(ctx, d)
		for _, tc := range []struct {
			name string
			step func()
		}{
			{"ReLU", func() { relu.Forward(ctx, x); relu.Backward(ctx, dy) }},
			{"Add", func() { add.Forward(ctx, x, dy); add.Backward(ctx, dy) }},
			{"MaxPool", func() { pool.Forward(ctx, x); pool.Backward(ctx, dyPool) }},
			{"GlobalAvgPool", func() { gap.Forward(ctx, x); gap.Backward(ctx, dyGAP) }},
			{"BatchNorm", func() { bn.Forward(ctx, x); bn.Backward(ctx, dy) }},
			{"MaxPool/forward-only", func() { poolInf.Forward(ctx, x) }},
			{"GlobalAvgPool/forward-only", func() { gapInf.Forward(ctx, x) }},
			{"BatchNorm/forward-only", func() { bnInf.Forward(ctx, x) }},
		} {
			tc.step()
			if a := testing.AllocsPerRun(10, tc.step); a != 0 {
				t.Errorf("%s: %v allocs per warm step, want 0", tc.name, a)
			}
		}
	})
}

func randTensor(seed int64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillRandN(seed, 1)
	return x
}

// StrategyNet accumulates a parent's other error signals into the tensor a
// layer returned, so Add's two error signals must not share storage.
func TestAddBackwardDistinctBuffers(t *testing.T) {
	g := dist.Grid{PN: 1, PC: 1, PH: 1, PW: 1}
	d := dist.Dist{Grid: g, N: 1, C: 1, H: 2, W: 2}
	runDistributed(g, func(ctx *Ctx) {
		a, b := NewAdd(d).Backward(ctx, NewDistTensor(d, ctx.Rank))
		a.Local.Data()[0] = 1
		if b.Local.Data()[0] != 0 {
			t.Error("Add.Backward returned one buffer for both branches")
		}
	})
}
