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

// Every forward-only layer given n < capacity samples computes only those:
// the result holds n samples, bitwise the first n of a capacity forward,
// and every owned buffer's rows past n keep a sentinel written before the
// call, so no work went to padding. The split none case runs on {PN:2}
// (a forward-only conv needs whole spatial dimensions and one channel
// way), the filter and channel cases on {PC:2}.
func TestInferenceLayersLivePrefix(t *testing.T) {
	const capN, n, sentinel = 4, 3, float32(-12345.5)
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	x, b := randTensor(61, capN, 4, 6, 6), randTensor(62, capN, 4, 6, 6)
	prefix := func(t *tensor.Tensor, rows int) *tensor.Tensor {
		s := t.Shape()
		return tensor.FromSlice(t.Data()[:rows*s[1]*s[2]*s[3]], rows, s[1], s[2], s[3])
	}
	kinds := []string{"Conv", "BatchNorm", "ReLU", "Add", "MaxPool", "GlobalAvgPool"}
	for _, tc := range []struct {
		name  string
		grid  dist.Grid
		split dist.Split
	}{
		{"none", dist.Grid{PN: 2, PC: 1, PH: 1, PW: 1}, dist.SplitNone},
		{"filter", dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, dist.SplitFilter},
		{"channel", dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, dist.SplitChannel},
	} {
		d := dist.Dist{Grid: tc.grid, N: capN, C: 4, H: 6, W: 6}
		dn := d
		dn.N = n
		var mu sync.Mutex
		full := make([][]DistTensor, len(kinds))
		live := make([][]DistTensor, len(kinds))
		for k := range kinds {
			full[k], live[k] = make([]DistTensor, tc.grid.Size()), make([]DistTensor, tc.grid.Size())
		}
		runDistributed(tc.grid, func(ctx *Ctx) {
			cv := NewPlacedConv(ctx, d, 6, geom, true, tc.split, true)
			cv.W.FillRandN(int64(63+ctx.Rank), 0.5)
			for i := range cv.Bias {
				cv.Bias[i] = 0.1 * float32(i+1)
			}
			bn := NewBatchNormInference(ctx, d)
			for i := range bn.RunMean {
				bn.RunMean[i], bn.RunVar[i], bn.Gamma[i], bn.Beta[i] = 0.1*float32(i), 1+0.5*float32(i), 2, -0.5
			}
			relu, add := NewReLU(d), NewAdd(d)
			pool, gap := NewMaxPool(ctx, d, dist.ConvGeom{K: 3, S: 2, Pad: 1}, true), NewGlobalAvgPool(ctx, d, true)
			layers := []struct {
				fwd   func(x, b DistTensor) DistTensor
				owned []*Owned
			}{
				{func(x, _ DistTensor) DistTensor { return cv.Forward(ctx, x) }, []*Owned{&cv.y, &cv.full}},
				{func(x, _ DistTensor) DistTensor { return bn.Forward(ctx, x) }, []*Owned{&bn.y}},
				{func(x, _ DistTensor) DistTensor { return relu.Forward(ctx, x) }, []*Owned{&relu.y}},
				{func(x, b DistTensor) DistTensor { return add.Forward(ctx, x, b) }, []*Owned{&add.out}},
				{func(x, _ DistTensor) DistTensor { return pool.Forward(ctx, x) }, []*Owned{&pool.y}},
				{func(x, _ DistTensor) DistTensor { return gap.Forward(ctx, x) }, []*Owned{&gap.y}},
			}
			xCap, bCap := Scatter(x, d)[ctx.Rank], Scatter(b, d)[ctx.Rank]
			xLive, bLive := Scatter(prefix(x, n), dn)[ctx.Rank], Scatter(prefix(b, n), dn)[ctx.Rank]
			for k, l := range layers {
				y := l.fwd(xCap, bCap)
				yFull := DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
				for _, o := range l.owned {
					if o.views == nil {
						continue
					}
					all := o.views[len(o.views)-1].Local.Data()
					for i := o.views[n].Local.Size(); i < len(all); i++ {
						all[i] = sentinel
					}
				}
				y = l.fwd(xLive, bLive)
				if y.Dist.N != n || y.Local.Dim(0) != dn.RangeN(ctx.Rank).Len() {
					t.Errorf("%s/%s rank %d: result at batch %d has %d local rows, want batch %d with %d",
						tc.name, kinds[k], ctx.Rank, y.Dist.N, y.Local.Dim(0), n, dn.RangeN(ctx.Rank).Len())
				}
				for j, o := range l.owned {
					if o.views == nil {
						continue
					}
					all := o.views[len(o.views)-1].Local.Data()
					for i := o.views[n].Local.Size(); i < len(all); i++ {
						if all[i] != sentinel {
							t.Errorf("%s/%s rank %d: owned buffer %d written past %d samples (word %d = %v)",
								tc.name, kinds[k], ctx.Rank, j, n, i, all[i])
							break
						}
					}
				}
				mu.Lock()
				full[k][ctx.Rank], live[k][ctx.Rank] = yFull, DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
				mu.Unlock()
			}
		})
		for k, kind := range kinds {
			if t.Failed() {
				return
			}
			want, got := Gather(full[k]), Gather(live[k])
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Errorf("%s/%s: live word %d = %v, capacity forward has %v (bitwise)", tc.name, kind, i, v, want.Data()[i])
					break
				}
			}
		}
	}
}

// Convs that share weights share one prepack: it is built once, by
// whichever Forward comes first, and invalidating it through either layer
// drops it for both. Nothing folds into a channel-split conv.
func TestShareWeightsSharesPrepack(t *testing.T) {
	g := dist.Grid{PN: 1, PC: 1, PH: 1, PW: 1}
	d := dist.Dist{Grid: g, N: 2, C: 3, H: 4, W: 4}
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	runDistributed(g, func(ctx *Ctx) {
		a := NewPlacedConv(ctx, d, 4, geom, true, dist.SplitNone, true)
		b := NewPlacedConv(ctx, d, 4, geom, true, dist.SplitNone, true)
		a.W.FillRandN(3, 1)
		b.ShareWeights(a)
		x := Scatter(randTensor(4, 2, 3, 4, 4), d)[ctx.Rank]
		ya := a.Forward(ctx, x).Local.Clone()
		pc := a.pack.p.Load()
		if yb := b.Forward(ctx, x).Local; pc == nil || b.pack.p.Load() != pc || yb.MaxAbsDiff(ya) != 0 {
			t.Error("convs sharing weights did not share one prepack and its answers")
		}
		b.InvalidatePacked()
		if a.pack.p.Load() != nil {
			t.Error("invalidating one sharer left the other's prepack in place")
		}
	})
	runDistributed(dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, func(ctx *Ctx) {
		dc := dist.Dist{Grid: ctx.Grid, N: 2, C: 4, H: 4, W: 4}
		cv := NewPlacedConv(ctx, dc, 4, geom, false, dist.SplitChannel, true)
		defer func() {
			if recover() == nil {
				t.Error("Fuse into a channel-split conv did not panic")
			}
		}()
		cv.Fuse(nil, true)
	})
}
