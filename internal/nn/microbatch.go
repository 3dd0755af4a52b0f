package nn

import "repro/internal/tensor"

// Micro-batching (gradient accumulation) is the out-of-core technique the
// paper contrasts with spatial parallelism for memory pressure (Section
// VII, citing Oyama et al.): when at least one sample fits in memory, a
// mini-batch is split into micro-batches whose gradients accumulate before
// a single update. It reduces peak activation memory by the micro/mini
// ratio, but unlike spatial parallelism it cannot help when a single
// sample's activations exceed device memory, and it serializes the
// micro-batches — which is why the 2K mesh model needs spatial parallelism.

// SegMicroBatchStep runs one training step of a segmentation network over
// micro-batches of at most mb samples, accumulating gradients so that the
// update equals a full-batch step (exactly for batchnorm-free networks;
// with batchnorm, statistics are per-micro-batch, the standard behaviour).
// Returns the mini-batch mean loss. The optimizer step is left to the
// caller, whose params now hold accumulated gradients.
func SegMicroBatchStep(net *SeqNet, x *tensor.Tensor, labels []int32, mb int) float64 {
	n := x.Dim(0)
	if mb <= 0 || mb > n {
		mb = n
	}
	xs := x.Shape()
	perSampleX := x.Size() / n
	perSampleL := len(labels) / n

	params := net.Params()
	acc := make([][]float32, len(params))
	for i, p := range params {
		acc[i] = make([]float32, len(p.G))
	}

	total := 0.0
	for lo := 0; lo < n; lo += mb {
		hi := lo + mb
		if hi > n {
			hi = n
		}
		cnt := hi - lo
		xMicro := tensor.FromSlice(x.Data()[lo*perSampleX:hi*perSampleX], append([]int{cnt}, xs[1:]...)...)
		lMicro := labels[lo*perSampleL : hi*perSampleL]
		logits := net.Forward(xMicro)
		loss, dl := SegLoss(logits, lMicro)
		// SegLoss normalizes by the micro-batch pixel count; reweight so the
		// accumulated gradient matches full-batch normalization.
		w := float32(cnt) / float32(n)
		dl.Scale(w)
		total += loss * float64(w)
		net.Backward(dl)
		for i, p := range params {
			for j, g := range p.G {
				acc[i][j] += g
			}
		}
	}
	for i, p := range params {
		copy(p.G, acc[i])
	}
	return total
}
