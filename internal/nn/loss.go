package nn

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// SegLoss computes the mean per-pixel softmax cross-entropy of logits
// [N, Classes, H, W] against a flattened [N, H, W] label map, returning the
// loss and the logits gradient (sequential reference).
func SegLoss(logits *tensor.Tensor, labels []int32) (float64, *tensor.Tensor) {
	d := tensor.New(logits.Shape()...)
	loss := kernels.SoftmaxCrossEntropySpatial(logits, labels, d)
	return loss, d
}

// ClsLoss computes the mean softmax cross-entropy of per-sample logits
// (shape [N, Classes] or [N, Classes, 1, 1]) against integer labels.
func ClsLoss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	flat := logits
	s := logits.Shape()
	if len(s) == 4 {
		flat = logits.Reshape(s[0], s[1]*s[2]*s[3])
	}
	d := tensor.New(flat.Shape()...)
	loss := kernels.SoftmaxCrossEntropy(flat, labels, d)
	return loss, d.Reshape(s...)
}

// ScatterLabels splits a global [N, H, W] label map into per-rank shards
// matching distribution d (channel count ignored).
func ScatterLabels(labels []int32, d dist.Dist) [][]int32 {
	if len(labels) != d.N*d.H*d.W {
		panic(fmt.Sprintf("nn: %d labels for %dx%dx%d map", len(labels), d.N, d.H, d.W))
	}
	out := make([][]int32, d.Grid.Size())
	for r := range out {
		rn, _, rh, rw := d.Block(r)
		shard := make([]int32, rn.Len()*rh.Len()*rw.Len())
		k := 0
		for n := rn.Lo; n < rn.Hi; n++ {
			for h := rh.Lo; h < rh.Hi; h++ {
				for w := rw.Lo; w < rw.Hi; w++ {
					shard[k] = labels[(n*d.H+h)*d.W+w]
					k++
				}
			}
		}
		out[r] = shard
	}
	return out
}

// DistSegLoss computes the global mean per-pixel cross-entropy from local
// logits and local labels. The local gradient is normalized by the global
// pixel count, so the distributed backward pass exactly matches the
// sequential one; the returned loss is the global mean (identical on every
// rank after an allreduce).
func DistSegLoss(ctx *core.Ctx, logits core.DistTensor, labels []int32) (float64, core.DistTensor) {
	ls := logits.Local.Shape()
	localCnt := ls[0] * ls[2] * ls[3]
	globalCnt := logits.Dist.N * logits.Dist.H * logits.Dist.W
	d := core.NewDistTensor(logits.Dist, ctx.Rank)
	localMean := kernels.SoftmaxCrossEntropySpatial(logits.Local, labels, d.Local)
	// Rescale the gradient from local-mean to global-mean normalization.
	scale := float32(localCnt) / float32(globalCnt)
	d.Local.Scale(scale)
	// Global loss: sum of local sums / global count.
	buf := []float32{float32(localMean * float64(localCnt) / float64(globalCnt))}
	if ctx.C.Size() > 1 {
		ctx.C.Allreduce(buf, comm.OpSum)
	}
	return float64(buf[0]), d
}

// DistClsLoss computes the global mean cross-entropy for classification
// logits produced by a GlobalAvgPool head: each rank holds replicated
// [nLoc, Classes, 1, 1] logits for its sample group's samples, and labels
// are this rank's local sample labels. The gradient is normalized by the
// global batch size; the loss is the global mean.
func DistClsLoss(ctx *core.Ctx, logits core.DistTensor, labels []int) (float64, core.DistTensor) {
	ls := logits.Local.Shape()
	nLoc := ls[0]
	if len(labels) != nLoc {
		panic(fmt.Sprintf("nn: %d labels for %d local samples", len(labels), nLoc))
	}
	globalN := logits.Dist.N
	flat := logits.Local.Reshape(nLoc, ls[1]*ls[2]*ls[3])
	d := core.NewDistTensor(logits.Dist, ctx.Rank)
	dFlat := d.Local.Reshape(nLoc, ls[1]*ls[2]*ls[3])
	localMean := kernels.SoftmaxCrossEntropy(flat, labels, dFlat)
	d.Local.Scale(float32(nLoc) / float32(globalN))
	// Sum across sample groups only: every rank of a spatial group holds
	// the same samples, so divide the world sum by the spatial ways.
	buf := []float32{float32(localMean * float64(nLoc) / float64(globalN))}
	if ctx.C.Size() > 1 {
		ctx.C.Allreduce(buf, comm.OpSum)
	}
	return float64(buf[0]) / float64(ctx.Grid.SpatialWays()), d
}

// ScatterSampleLabels splits per-sample labels by the N partition of d;
// every rank of a spatial group receives the same labels.
func ScatterSampleLabels(labels []int, d dist.Dist) [][]int {
	out := make([][]int, d.Grid.Size())
	for r := range out {
		rn := d.RangeN(r)
		out[r] = append([]int(nil), labels[rn.Lo:rn.Hi]...)
	}
	return out
}
