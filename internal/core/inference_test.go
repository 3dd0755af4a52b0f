package core

import (
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// A forward-only batchnorm normalizes with the running statistics: it
// matches the sequential inference kernel (the training Forward
// intentionally uses batch statistics), with no gradient buffers.
func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	g := dist.Grid{PN: 1, PH: 2, PW: 1}
	d := dist.Dist{Grid: g, N: 2, C: 3, H: 8, W: 8}
	x := tensor.New(2, 3, 8, 8)
	x.FillRandN(31, 1)

	runMean := []float32{0.1, -0.2, 0.3}
	runVar := []float32{1.5, 0.7, 2.0}

	// Sequential reference on the full tensor.
	want := tensor.New(2, 3, 8, 8)
	gamma := []float32{1, 2, 3}
	beta := []float32{-1, 0, 1}
	kernels.BatchNormInference(x, runMean, runVar, gamma, beta, 1e-5, want)

	var mu sync.Mutex
	outs := make([]DistTensor, g.Size())
	runDistributed(g, func(ctx *Ctx) {
		l := NewBatchNormInference(ctx, d)
		if l.DGamma != nil || l.DBeta != nil {
			t.Error("inference batchnorm allocated gradient buffers")
		}
		copy(l.RunMean, runMean)
		copy(l.RunVar, runVar)
		copy(l.Gamma, gamma)
		copy(l.Beta, beta)
		shard := Scatter(x, d)[ctx.Rank]
		y := l.Forward(ctx, shard)
		mu.Lock()
		outs[ctx.Rank] = y
		mu.Unlock()
	})
	got := Gather(outs)
	if diff := got.MaxAbsDiff(want); diff != 0 {
		t.Errorf("distributed inference batchnorm differs from sequential: %g", diff)
	}
}

// Filter-split forward-only convolutions must be bitwise identical to the
// sequential batched serving kernel: every rank holds complete weight rows
// and gathers the complete input channels, so its filter block reproduces
// the same accumulations ConvForwardBatched performs. A replicated
// forward-only conv is the one-block case.
func TestFilterParallelConvInferenceBitwise(t *testing.T) {
	for _, tc := range []struct {
		pc    int
		split dist.Split
	}{{1, dist.SplitNone}, {1, dist.SplitFilter}, {2, dist.SplitFilter}, {3, dist.SplitFilter}} {
		pc := tc.pc
		g := dist.Grid{PN: 1, PC: pc, PH: 1, PW: 1}
		inD := dist.Dist{Grid: g, N: 3, C: 5, H: 6, W: 6}
		geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
		const f = 7
		x := tensor.New(3, 5, 6, 6)
		x.FillRandN(11, 1)
		w := tensor.New(f, 5, 3, 3)
		w.FillRandN(12, 0.5)
		bias := make([]float32, f)
		for i := range bias {
			bias[i] = 0.05 * float32(i)
		}
		want := tensor.New(3, f, 6, 6)
		kernels.ConvForwardBatched(x, w, bias, want, 1, 1)

		var mu sync.Mutex
		outs := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			l := NewPlacedConv(ctx, inD, f, geom, true, tc.split, true)
			if l.DW != nil || l.DBias != nil {
				t.Error("forward-only conv allocated gradient buffers")
			}
			// Load this rank's filter rows of the full weights and bias.
			copy(l.W.Data(), w.Data()[l.FRange.Lo*5*3*3:l.FRange.Hi*5*3*3])
			copy(l.Bias, bias[l.FRange.Lo:l.FRange.Hi])
			shard := Scatter(x, inD)[ctx.Rank]
			y := l.Forward(ctx, shard)
			mu.Lock()
			outs[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
			mu.Unlock()
		})
		got := Gather(outs)
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("pc=%d %v: output[%d] = %v, want %v (bitwise)", pc, tc.split, i, v, want.Data()[i])
				break
			}
		}
	}
}

// Channel-split forward-only convolutions reassociate the channel sum (one
// partial per block), so they match the sequential kernel to float
// tolerance and must be deterministic run-to-run.
func TestChannelParallelConvInferenceDeterministic(t *testing.T) {
	g := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	inD := dist.Dist{Grid: g, N: 2, C: 6, H: 5, W: 5}
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	const f = 4
	x := tensor.New(2, 6, 5, 5)
	x.FillRandN(21, 1)
	w := tensor.New(f, 6, 3, 3)
	w.FillRandN(22, 0.5)
	want := tensor.New(2, f, 5, 5)
	kernels.ConvForwardBatched(x, w, nil, want, 1, 1)

	run := func() *tensor.Tensor {
		var mu sync.Mutex
		outs := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			l := NewPlacedConv(ctx, inD, f, geom, false, dist.SplitChannel, true)
			if l.DW != nil {
				t.Error("forward-only conv allocated gradient buffers")
			}
			// This rank holds W[:, cBlk].
			l.W.InsertRegion(
				tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}},
				w.ExtractRegion(tensor.Region{Off: []int{0, l.CRange.Lo, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}}))
			shard := Scatter(x, inD)[ctx.Rank]
			y := l.Forward(ctx, shard)
			mu.Lock()
			outs[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
			mu.Unlock()
		})
		return Gather(outs)
	}
	a, b := run(), run()
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("channel-split inference not deterministic run-to-run: %g", d)
	}
	if d := a.RelDiff(want); d > 1e-5 {
		t.Errorf("channel-split inference far from sequential: rel diff %g", d)
	}
}

func TestInferenceBackwardPanics(t *testing.T) {
	g := dist.Grid{PN: 1, PH: 1, PW: 1}
	d := dist.Dist{Grid: g, N: 1, C: 2, H: 4, W: 4}
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	runDistributed(g, func(ctx *Ctx) {
		cv := NewPlacedConv(ctx, d, 2, geom, true, dist.SplitNone, true)
		if cv.DW != nil || cv.DBias != nil {
			t.Error("forward-only conv allocated gradient buffers")
		}
		x := NewDistTensor(d, ctx.Rank)
		for _, l := range []interface {
			Forward(*Ctx, DistTensor) DistTensor
			Backward(*Ctx, DistTensor) DistTensor
		}{cv, NewMaxPool(ctx, d, geom, true), NewGlobalAvgPool(ctx, d, true), NewBatchNormInference(ctx, d)} {
			y := l.Forward(ctx, x)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Backward on a forward-only %T did not panic", l)
					}
				}()
				l.Backward(ctx, y)
			}()
		}
	})
}
