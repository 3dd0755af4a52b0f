package core

import (
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// BatchNormMode selects how statistics are aggregated under distribution
// (Section III-B discusses both variants).
type BatchNormMode int

// Batch normalization aggregation modes.
const (
	// BatchNormGlobal aggregates statistics over all processors — the
	// "aggregates over the spatial distribution" variant; it exactly
	// replicates single-device batch normalization.
	BatchNormGlobal BatchNormMode = iota
	// BatchNormLocal computes statistics purely locally on each processor's
	// shard (the traditional data-parallel behaviour).
	BatchNormLocal
)

// BatchNorm is a distributed batch normalization layer with learnable scale
// (gamma) and shift (beta). Its output and error signal are owned by the
// layer, allocated on first use and overwritten by the next step. Forward
// takes n ≤ Dist.N samples, normalizes only those, and returns the first n
// samples of its output.
type BatchNorm struct {
	Dist dist.Dist
	Mode BatchNormMode
	Eps  float32

	Gamma, Beta   []float32
	DGamma, DBeta []float32

	// Running statistics for inference.
	RunMean, RunVar []float32
	Momentum        float32

	x      *tensor.Tensor // saved input shard
	c      int            // local channel count (this rank's block of Dist.C)
	mean   []float32
	invstd []float32
	count  int

	// inference marks a forward-only layer (NewBatchNormInference): Forward
	// normalizes with the running statistics (no aggregation, no stash) and
	// Backward panics.
	inference bool
	y, dx     Owned

	// Step-persistent scratch: the stats and backward-sums buffers are owned
	// by the layer and reused across training steps, so a warm step
	// allocates nothing here.
	stats []float32 // [sum | sumsq | count], length 2C+1
	sums  []float32 // [dgamma | dbeta], length 2C
}

// NewBatchNorm constructs the layer for activations distributed as d. When
// d splits the channel axis, the layer holds gamma/beta (and statistics)
// only for this rank's channel block, and aggregates over the ranks sharing
// that block (ctx.ChanPeers) — with PC == 1 that is every processor,
// exactly replicating single-device batch normalization.
func NewBatchNorm(ctx *Ctx, d dist.Dist, mode BatchNormMode) *BatchNorm {
	c := d.RangeC(ctx.Rank).Len()
	l := newBatchNorm(d, mode, c)
	l.DGamma = make([]float32, c)
	l.DBeta = make([]float32, c)
	l.stats = make([]float32, 2*c+1)
	l.sums = make([]float32, 2*c)
	return l
}

// NewBatchNormInference constructs a forward-only distributed batch
// normalization layer: Forward normalizes with the running statistics — no
// cross-rank statistics aggregation, no gradient buffers, no stashed input.
// Under a channel-split grid the layer holds gamma/beta and the running
// statistics only for this rank's channel block, exactly like NewBatchNorm.
// Backward panics; weights and running statistics are still exported, so a
// trained checkpoint restores into it unchanged.
func NewBatchNormInference(ctx *Ctx, d dist.Dist) *BatchNorm {
	l := newBatchNorm(d, BatchNormGlobal, d.RangeC(ctx.Rank).Len())
	l.inference = true
	return l
}

func newBatchNorm(d dist.Dist, mode BatchNormMode, c int) *BatchNorm {
	l := &BatchNorm{
		c:    c,
		Dist: d, Mode: mode, Eps: 1e-5, Momentum: 0.9,
		Gamma: make([]float32, c), Beta: make([]float32, c),
		RunMean: make([]float32, c), RunVar: make([]float32, c),
		mean: make([]float32, c), invstd: make([]float32, c),
	}
	for i := range l.Gamma {
		l.Gamma[i] = 1
		l.RunVar[i] = 1
	}
	return l
}

// Forward normalizes the local shard with (optionally) globally aggregated
// statistics.
func (l *BatchNorm) Forward(ctx *Ctx, x DistTensor) DistTensor {
	y := l.y.Rows(l.Dist, ctx.Rank, batchOf(x, l.Dist, "batchnorm", false))
	if l.inference {
		// Running statistics are replicated within the channel block, so no
		// aggregation is needed and nothing is stashed for a backward pass
		// that will never come.
		kernels.BatchNormInference(x.Local, l.RunMean, l.RunVar, l.Gamma, l.Beta, l.Eps, y.Local)
		return y
	}
	c := l.c
	stats := l.stats
	kernels.BatchNormStats(x.Local, stats[:c], stats[c:2*c])
	ls := x.Local.Shape()
	stats[2*c] = float32(ls[0] * ls[2] * ls[3])
	if l.Mode == BatchNormGlobal && ctx.ChanPeers.Size() > 1 {
		ctx.ChanPeers.Allreduce(stats, comm.OpSum)
	}
	l.count = int(stats[2*c])
	kernels.BatchNormMoments(stats[:c], stats[c:2*c], l.count, l.Eps, l.mean, l.invstd)
	// Update running statistics (replicated, so ranks stay consistent).
	for ci := 0; ci < c; ci++ {
		m := l.mean[ci]
		v := stats[c+ci]/float32(l.count) - m*m
		l.RunMean[ci] = l.Momentum*l.RunMean[ci] + (1-l.Momentum)*m
		l.RunVar[ci] = l.Momentum*l.RunVar[ci] + (1-l.Momentum)*v
	}
	kernels.BatchNormForward(x.Local, l.mean, l.invstd, l.Gamma, l.Beta, y.Local)
	l.x = x.Local
	return y
}

// Backward computes dgamma/dbeta (reduced over the statistics group — they
// double as the parameter gradients) and the input error signal.
//
// Unlike convolution weight gradients, this reduction cannot be deferred:
// the backward-data kernel consumes the globally-reduced sums, so the
// allreduce sits on the critical path and DGamma/DBeta emerge already
// complete — the gradient-overlap engine must not (and does not) reduce
// them again.
func (l *BatchNorm) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	if l.DGamma == nil {
		panic("core: Backward on an inference-only BatchNorm (NewBatchNormInference)")
	}
	if l.x == nil {
		panic("core: batchnorm Backward called before Forward")
	}
	c := l.c
	sums := l.sums
	kernels.BatchNormBackwardStats(l.x, dy.Local, l.mean, l.invstd, sums[:c], sums[c:])
	if l.Mode == BatchNormGlobal && ctx.ChanPeers.Size() > 1 {
		ctx.ChanPeers.Allreduce(sums, comm.OpSum)
	}
	copy(l.DGamma, sums[:c])
	copy(l.DBeta, sums[c:])
	dx := l.dx.Rows(l.Dist, ctx.Rank, dy.Dist.N)
	kernels.BatchNormBackwardData(l.x, dy.Local, l.mean, l.invstd, l.Gamma,
		l.DGamma, l.DBeta, l.count, dx.Local)
	l.x = nil
	return dx
}

// ReLU is a distributed rectified linear unit; elementwise, so it
// parallelizes trivially regardless of distribution (Section III-B). Its
// output and error signal are owned by the layer, allocated on first use
// and overwritten by the next step. Forward takes n ≤ Dist.N samples and
// returns the first n samples of its output.
type ReLU struct {
	Dist  dist.Dist
	x     *tensor.Tensor
	y, dx Owned
}

// NewReLU constructs the layer.
func NewReLU(d dist.Dist) *ReLU { return &ReLU{Dist: d} }

// Forward applies max(0, x) to the local shard.
func (l *ReLU) Forward(ctx *Ctx, x DistTensor) DistTensor {
	y := l.y.Rows(l.Dist, ctx.Rank, x.Dist.N)
	kernels.ReLUForward(x.Local, y.Local)
	l.x = x.Local
	return y
}

// Backward masks the error signal by the forward sign pattern.
func (l *ReLU) Backward(ctx *Ctx, dy DistTensor) DistTensor {
	dx := l.dx.Rows(l.Dist, ctx.Rank, dy.Dist.N)
	kernels.ReLUBackward(l.x, dy.Local, dx.Local)
	l.x = nil
	return dx
}

// Add is the elementwise sum joining residual branches. Its output and the
// two error signals are owned by the layer, allocated on first use and
// overwritten by the next step; the error signals are distinct buffers, so
// a caller may accumulate into either. Forward takes n ≤ Dist.N samples and
// returns the first n samples of its output.
type Add struct {
	Dist        dist.Dist
	relu        bool // FuseReLU: Forward is max(0, a + b), Backward panics
	out, da, db Owned
}

// NewAdd constructs the layer.
func NewAdd(d dist.Dist) *Add { return &Add{Dist: d} }

// FuseReLU folds a ReLU that is the sum's sole consumer into Forward, in
// the same elementwise pass (kernels.AddReLU, bitwise the two passes). The
// caller skips that ReLU; the layer is forward-only from then on.
func (l *Add) FuseReLU() { l.relu = true }

// Forward computes a + b on local shards (distributions must match).
func (l *Add) Forward(ctx *Ctx, a, b DistTensor) DistTensor {
	out := l.out.Rows(l.Dist, ctx.Rank, a.Dist.N)
	if l.relu {
		kernels.AddReLU(a.Local, b.Local, out.Local)
	} else {
		kernels.Add(a.Local, b.Local, out.Local)
	}
	return out
}

// Backward passes dy to both branches unchanged.
func (l *Add) Backward(ctx *Ctx, dy DistTensor) (DistTensor, DistTensor) {
	if l.relu {
		panic("core: Backward on an Add with a fused ReLU")
	}
	da, db := l.da.Rows(l.Dist, ctx.Rank, dy.Dist.N), l.db.Rows(l.Dist, ctx.Rank, dy.Dist.N)
	copy(da.Local.Data(), dy.Local.Data())
	copy(db.Local.Data(), dy.Local.Data())
	return da, db
}
