package kernels

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// lossJob is the pooled work item for the softmax cross-entropy kernels:
// each chunk writes its samples' losses into the per-sample partials slice
// (disjoint indices, no synchronization) and the caller reduces it
// serially, so the parallel loss is bitwise identical run to run — chunk
// completion order cannot reorder the float64 sum. The partials buffer
// lives in the pooled job and regrows monotonically, keeping warm calls
// allocation-free.
type lossJob struct {
	run func(j *lossJob, lo, hi int)

	ld, dd    []float32
	labels    []int
	labels32  []int32
	cl, plane int
	norm      float64
	partials  []float64
}

var lossJobPool = sync.Pool{New: func() any { return new(lossJob) }}

func (j *lossJob) RunChunk(lo, hi int) { j.run(j, lo, hi) }

func (j *lossJob) release() float64 {
	var total float64
	for _, v := range j.partials {
		total += v
	}
	j.run = nil
	j.ld, j.dd = nil, nil
	j.labels, j.labels32 = nil, nil
	lossJobPool.Put(j)
	return total
}

func (j *lossJob) grow(n int) {
	if cap(j.partials) < n {
		j.partials = make([]float64, n)
	}
	j.partials = j.partials[:n]
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// [N, Classes] against integer labels and the gradient dlogits
// (softmax(logits) - onehot)/N. Returns the mean loss.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int, dlogits *tensor.Tensor) float64 {
	n, cl := flat2(logits)
	if len(labels) != n {
		panic(fmt.Sprintf("kernels: %d labels for %d samples", len(labels), n))
	}
	var dd []float32
	if dlogits != nil {
		if dlogits.Size() != logits.Size() {
			panic("kernels: dlogits shape mismatch")
		}
		dd = dlogits.Data()
	}
	// Validate labels up front, on the caller's stack: a panic inside a
	// pool-worker goroutine could not be recovered by the caller.
	for i, lbl := range labels {
		if lbl < 0 || lbl >= cl {
			panic(fmt.Sprintf("kernels: label %d (sample %d) out of range [0,%d)", lbl, i, cl))
		}
	}
	j := lossJobPool.Get().(*lossJob)
	j.run = xentRowsChunk
	j.ld, j.dd, j.labels, j.cl = logits.Data(), dd, labels, cl
	j.norm = float64(n)
	j.grow(n)
	parallelChunks(n, j)
	return j.release() / float64(n)
}

func xentRowsChunk(j *lossJob, lo, hi int) {
	cl := j.cl
	for i := lo; i < hi; i++ {
		row := j.ld[i*cl : (i+1)*cl]
		lbl := j.labels[i]
		// Numerically stable log-sum-exp.
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logZ := math.Log(sum) + float64(mx)
		j.partials[i] = logZ - float64(row[lbl])
		if j.dd != nil {
			drow := j.dd[i*cl : (i+1)*cl]
			for q, v := range row {
				p := math.Exp(float64(v)-logZ) / j.norm
				drow[q] = float32(p)
			}
			drow[lbl] -= float32(1 / j.norm)
		}
	}
}

// SoftmaxCrossEntropySpatial computes the mean per-pixel cross-entropy of
// logits [N, Classes, H, W] against a label map [N, H, W] (flattened,
// row-major), as used for semantic segmentation of the mesh-tangling data.
// Gradient normalization is by the total pixel count.
func SoftmaxCrossEntropySpatial(logits *tensor.Tensor, labels []int32, dlogits *tensor.Tensor) float64 {
	s := logits.Shape()
	n, cl, h, w := s[0], s[1], s[2], s[3]
	if len(labels) != n*h*w {
		panic(fmt.Sprintf("kernels: %d labels for %d pixels", len(labels), n*h*w))
	}
	var dd []float32
	if dlogits != nil {
		if dlogits.Size() != logits.Size() {
			panic("kernels: dlogits shape mismatch")
		}
		dd = dlogits.Data()
	}
	plane := h * w
	norm := float64(n * plane)
	for i, lbl := range labels {
		if int(lbl) < 0 || int(lbl) >= cl {
			panic(fmt.Sprintf("kernels: label %d (pixel %d) out of range [0,%d)", lbl, i, cl))
		}
	}
	j := lossJobPool.Get().(*lossJob)
	j.run = xentSpatialChunk
	j.ld, j.dd, j.labels32 = logits.Data(), dd, labels
	j.cl, j.plane, j.norm = cl, plane, norm
	j.grow(n)
	parallelChunks(n, j)
	return j.release() / norm
}

func xentSpatialChunk(j *lossJob, nlo, nhi int) {
	cl, plane := j.cl, j.plane
	for ni := nlo; ni < nhi; ni++ {
		var partial float64
		for p := 0; p < plane; p++ {
			lbl := int(j.labels32[ni*plane+p])
			base := ni*cl*plane + p
			mx := float32(math.Inf(-1))
			for c := 0; c < cl; c++ {
				if v := j.ld[base+c*plane]; v > mx {
					mx = v
				}
			}
			var sum float64
			for c := 0; c < cl; c++ {
				sum += math.Exp(float64(j.ld[base+c*plane] - mx))
			}
			logZ := math.Log(sum) + float64(mx)
			partial += logZ - float64(j.ld[base+lbl*plane])
			if j.dd != nil {
				for c := 0; c < cl; c++ {
					pr := math.Exp(float64(j.ld[base+c*plane])-logZ) / j.norm
					j.dd[base+c*plane] = float32(pr)
				}
				j.dd[base+lbl*plane] -= float32(1 / j.norm)
			}
		}
		j.partials[ni] = partial
	}
}

// flat2 views a tensor as [dim0, rest]: per-sample rows of a logits tensor
// of any rank.
func flat2(t *tensor.Tensor) (int, int) {
	s := t.Shape()
	if len(s) == 0 {
		panic("kernels: scalar tensor has no sample rows")
	}
	n := s[0]
	rest := 1
	for _, d := range s[1:] {
		rest *= d
	}
	return n, rest
}

// ArgmaxRows returns the argmax class of each row of logits [N, Classes].
func ArgmaxRows(logits *tensor.Tensor) []int {
	n, cl := flat2(logits)
	ld := logits.Data()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = ArgmaxRow(ld[i*cl : (i+1)*cl])
	}
	return out
}

// ArgmaxRow returns the argmax index of one flat logits row — the
// allocation-free primitive ArgmaxRows maps over, usable directly on
// serving's per-request output slices.
func ArgmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// PixelArgmax returns the per-pixel argmax class of logits [N, C, H, W] as a
// flattened [N, H, W] label map.
func PixelArgmax(logits *tensor.Tensor) []int32 {
	s := logits.Shape()
	n, cl, plane := s[0], s[1], s[2]*s[3]
	ld := logits.Data()
	out := make([]int32, n*plane)
	for ni := 0; ni < n; ni++ {
		for p := 0; p < plane; p++ {
			base := ni*cl*plane + p
			best := 0
			for c := 1; c < cl; c++ {
				if ld[base+c*plane] > ld[base+best*plane] {
					best = c
				}
			}
			out[ni*plane+p] = int32(best)
		}
	}
	return out
}
