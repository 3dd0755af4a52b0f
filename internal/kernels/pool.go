package kernels

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// poolJob is the shared pooled work item for the pooling kernels: each kernel
// sets run to a top-level function (no closure allocation) plus its geometry,
// so warm pooling calls make no heap allocations — a requirement of both
// steady-state training steps and the serving subsystem's zero-alloc
// Predict path.
type poolJob struct {
	run func(j *poolJob, lo, hi int)

	xd, yd, dyd, dxd []float32
	argmax           []int32

	k, stride, pad         int
	xh, xw, yh, yw         int
	xLoH, xLoW, yLoH, yLoW int
	globalH, globalW       int
	plane                  int
}

var poolJobPool = sync.Pool{New: func() any { return new(poolJob) }}

func (j *poolJob) RunChunk(lo, hi int) { j.run(j, lo, hi) }

func (j *poolJob) release() {
	*j = poolJob{}
	poolJobPool.Put(j)
}

// MaxPoolForwardRegion computes max pooling for a local region of the global
// output. x is the (halo-extended) local input buffer covering global rows
// [xLoH, xLoH+XH) and columns [xLoW, xLoW+XW); y is the local output
// covering global rows [yLoH, ...). Window positions outside the global
// input extent (globalH x globalW) are excluded from the max, matching
// cuDNN's treatment of padding. argmax (len = y.Size()) records the linear
// index into x.Data() of each maximum for the backward scatter; it may be
// nil if no backward pass is needed (inference).
func MaxPoolForwardRegion(x, y *tensor.Tensor, k, stride, pad, xLoH, xLoW, yLoH, yLoW, globalH, globalW int, argmax []int32) {
	xs, ys := x.Shape(), y.Shape()
	n, c := xs[0], xs[1]
	if ys[0] != n || ys[1] != c {
		panic(fmt.Sprintf("kernels: maxpool shapes x=%v y=%v inconsistent", xs, ys))
	}
	if argmax != nil && len(argmax) != y.Size() {
		panic("kernels: argmax length != output size")
	}
	j := poolJobPool.Get().(*poolJob)
	j.run = maxPoolFwdChunk
	if argmax == nil && xLoH == 0 && xLoW == 0 && yLoH == 0 && yLoW == 0 &&
		globalH == xs[2] && globalW == xs[3] {
		j.run = maxPoolFwdInferChunk
	}
	j.xd, j.yd, j.argmax = x.Data(), y.Data(), argmax
	j.k, j.stride, j.pad = k, stride, pad
	j.xh, j.xw, j.yh, j.yw = xs[2], xs[3], ys[2], ys[3]
	j.xLoH, j.xLoW, j.yLoH, j.yLoW = xLoH, xLoW, yLoH, yLoW
	j.globalH, j.globalW = globalH, globalW
	parallelChunks(n*c, j)
	j.release()
}

// maxPoolFwdInferChunk is the single-node inference fast path: no argmax, no
// halo offsets (local extent == global extent). Window clipping moves out of
// the per-tap loop — each output's valid kh/kw range is computed up front and
// the inner sweep is a branch-free max over a contiguous row slice. The taps
// are visited in the same ascending (kh, kw) order as the general chunk with
// the same strict-> comparison, so the kept value (including -0 vs +0 and
// first-of-equals) is bitwise identical.
func maxPoolFwdInferChunk(j *poolJob, lo, hi int) {
	xh, xw, yh, yw := j.xh, j.xw, j.yh, j.yw
	k, stride, pad := j.k, j.stride, j.pad
	for nc := lo; nc < hi; nc++ {
		xBase := nc * xh * xw
		yBase := nc * yh * yw
		xd := j.xd[xBase : xBase+xh*xw]
		for oy := 0; oy < yh; oy++ {
			iy0 := oy*stride - pad
			khLo := max(0, -iy0)
			khHi := min(k, xh-iy0)
			yRow := j.yd[yBase+oy*yw : yBase+(oy+1)*yw]
			for ox := 0; ox < yw; ox++ {
				ix0 := ox*stride - pad
				kwLo := max(0, -ix0)
				kwHi := min(k, xw-ix0)
				best := float32(math.Inf(-1))
				for kh := khLo; kh < khHi; kh++ {
					off := (iy0+kh)*xw + ix0
					for kw := kwLo; kw < kwHi; kw++ {
						if v := xd[off+kw]; v > best {
							best = v
						}
					}
				}
				yRow[ox] = best
			}
		}
	}
}

func maxPoolFwdChunk(j *poolJob, lo, hi int) {
	for nc := lo; nc < hi; nc++ {
		xBase := nc * j.xh * j.xw
		yBase := nc * j.yh * j.yw
		for oyl := 0; oyl < j.yh; oyl++ {
			oy := j.yLoH + oyl
			for oxl := 0; oxl < j.yw; oxl++ {
				ox := j.yLoW + oxl
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				for kh := 0; kh < j.k; kh++ {
					iy := oy*j.stride - j.pad + kh
					if iy < 0 || iy >= j.globalH {
						continue
					}
					iyl := iy - j.xLoH
					if iyl < 0 || iyl >= j.xh {
						panic("kernels: maxpool input buffer does not cover required rows")
					}
					for kw := 0; kw < j.k; kw++ {
						ix := ox*j.stride - j.pad + kw
						if ix < 0 || ix >= j.globalW {
							continue
						}
						ixl := ix - j.xLoW
						if ixl < 0 || ixl >= j.xw {
							panic("kernels: maxpool input buffer does not cover required cols")
						}
						idx := xBase + iyl*j.xw + ixl
						if v := j.xd[idx]; v > best {
							best = v
							bestIdx = int32(idx)
						}
					}
				}
				o := yBase + oyl*j.yw + oxl
				j.yd[o] = best
				if j.argmax != nil {
					j.argmax[o] = bestIdx
				}
			}
		}
	}
}

// MaxPoolForward is the sequential max pooling forward pass.
func MaxPoolForward(x, y *tensor.Tensor, k, stride, pad int, argmax []int32) {
	xs := x.Shape()
	MaxPoolForwardRegion(x, y, k, stride, pad, 0, 0, 0, 0, xs[2], xs[3], argmax)
}

// MaxPoolBackward scatters dy into dx using the argmax indices recorded by
// the forward pass. dx must have the same shape as the forward input buffer
// (including halo margins in distributed operation, after which the margins
// are reverse-exchanged and summed into their owners). dx is zeroed first.
func MaxPoolBackward(dy *tensor.Tensor, argmax []int32, dx *tensor.Tensor) {
	if len(argmax) != dy.Size() {
		panic("kernels: argmax length != dy size")
	}
	dx.Zero()
	// Scatter is sequential per plane to avoid write races: planes of dx are
	// disjoint across (n,c), and argmax indices from plane (n,c) stay in it.
	ys := dy.Shape()
	j := poolJobPool.Get().(*poolJob)
	j.run = maxPoolBwdChunk
	j.dyd, j.dxd, j.argmax = dy.Data(), dx.Data(), argmax
	j.plane = ys[2] * ys[3]
	parallelChunks(ys[0]*ys[1], j)
	j.release()
}

func maxPoolBwdChunk(j *poolJob, lo, hi int) {
	for p := lo; p < hi; p++ {
		for i := p * j.plane; i < (p+1)*j.plane; i++ {
			if j.argmax[i] >= 0 {
				j.dxd[j.argmax[i]] += j.dyd[i]
			}
		}
	}
}

// GlobalAvgPoolForward averages each channel plane to one value:
// x [N,C,H,W] -> y [N,C,1,1]. Each plane is summed in row-major order in
// float32 and divided once by H*W.
func GlobalAvgPoolForward(x, y *tensor.Tensor) {
	xs, ys := x.Shape(), y.Shape()
	if len(ys) != 4 || ys[0] != xs[0] || ys[1] != xs[1] || ys[2] != 1 || ys[3] != 1 {
		panic(fmt.Sprintf("kernels: global avgpool x=%v needs y=[%d %d 1 1], got %v", xs, xs[0], xs[1], ys))
	}
	j := poolJobPool.Get().(*poolJob)
	j.run = globalAvgPoolChunk
	j.xd, j.yd = x.Data(), y.Data()
	j.plane = xs[2] * xs[3]
	parallelChunks(xs[0]*xs[1], j)
	j.release()
}

func globalAvgPoolChunk(j *poolJob, lo, hi int) {
	for p := lo; p < hi; p++ {
		var sum float32
		for _, v := range j.xd[p*j.plane : (p+1)*j.plane] {
			sum += v
		}
		j.yd[p] = sum / float32(j.plane)
	}
}
