package kernels

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// ConvForwardBatched computes y = conv(x, w) + bias like ConvForward, but
// lowers the whole mini-batch onto ONE packed GEMM instead of a GEMM per
// sample: the inputs unfold into a single [C*K*K, N*OH*OW] column matrix
// (sample ni owns the contiguous column block [ni*OH*OW, (ni+1)*OH*OW)), a
// single GemmNNStable produces [F, N*OH*OW], and an unshuffle pass
// transposes the result into the NCHW output layout, folding in the bias.
// GemmNNStable (never the small-problem fallback) keeps each sample's
// output bitwise independent of the batch it rode in on.
//
// This is the serving-side analogue of the paper's insight that throughput
// comes from batching work onto wide, well-blocked kernels: N micro-batched
// requests pay for one A-matrix pack and one sweep of full-width B panels,
// where the per-sample formulation packs W and re-warms the GEMM N times on
// matrices too narrow to amortize it. All scratch (column matrix, GEMM
// output) comes from the default workspace, so warm calls — in particular
// every batcher flush in internal/serve — allocate nothing.
//
// The extra output shuffle costs one output-sized copy; it is only worth
// paying when N > 1 and the per-sample GEMM is small, which is exactly the
// dynamic micro-batching regime. Training keeps the per-sample ConvForward
// whose accumulation order the distributed-equivalence tests pin down.
func ConvForwardBatched(x, w *tensor.Tensor, bias []float32, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	if bias != nil && len(bias) != f {
		panic("kernels: bias length != filters")
	}
	ckk := c * k * k
	plane := oh * ow
	cols := n * plane
	xd, wwd, yd := x.Data(), w.Data(), y.Data()

	colBuf := defaultWS.Get(ckk * cols)
	col := *colBuf
	ij := im2colBatchJobPool.Get().(*im2colBatchJob)
	ij.x, ij.col = xd, col
	ij.c, ij.h, ij.w, ij.k = c, h, wd, k
	ij.stride, ij.pad, ij.oh, ij.ow, ij.cols = stride, pad, oh, ow, cols
	parallelChunks(n*c, ij)
	ij.x, ij.col = nil, nil
	im2colBatchJobPool.Put(ij)

	outBuf := defaultWS.Get(f * cols)
	out := *outBuf
	GemmNNStable(f, cols, ckk, 1, wwd, col, 0, out)
	defaultWS.Put(colBuf)

	uj := convUnshuffleJobPool.Get().(*convUnshuffleJob)
	uj.out, uj.yd, uj.bias = out, yd, bias
	uj.f, uj.plane, uj.cols = f, plane, cols
	parallelChunks(n*f, uj)
	uj.out, uj.yd, uj.bias = nil, nil, nil
	convUnshuffleJobPool.Put(uj)
	defaultWS.Put(outBuf)
}

// PackConvWeights packs conv weights w [F, C, K, K] for the prepacked
// batched forward: op(B) = Wᵀ (CKK x F), i.e. the transposed-GEMM
// formulation in which the immutable weights are the GEMM's B operand.
// Built once at model load (and again after a checkpoint restore); shared
// read-only by every replica.
func PackConvWeights(w *tensor.Tensor) *PackedB {
	ws := w.Shape()
	f, ckk := ws[0], ws[1]*ws[2]*ws[3]
	return PackB(ckk, f, w.Data(), true)
}

// ConvForwardBatchedPrepacked computes the same batched convolution as
// ConvForwardBatched, but against prepacked weights and with an optional
// fused epilogue, via the transposed formulation
//
//	out[N*OH*OW, F] = im2colᵀ[N*OH*OW, CKK] x Wᵀ[CKK, F]
//
// so the weights are the GEMM's B operand and their pack phase disappears
// from every call (and from the obs trace — no gemm_pack_b span). The
// im2col column matrix is never materialized either: the GEMM's pack-A
// phase gathers each micro-panel straight out of x (implicit im2col, see
// packAIm2col), placing exactly the values the explicit lowering would
// have read into exactly the panel slots the transposed pack would have
// put them, so the per-element K-accumulation order — and therefore every
// output bit — matches ConvForwardBatched's. The epilogue carries the conv
// bias (the unshuffle no longer folds it) plus any fused BN/ReLU; nil epi
// means the raw convolution with no bias.
//
// wk is the square kernel size (the packed weights no longer carry their
// shape); wp must be PackConvWeights of a [F, C, wk, wk] weight tensor.
func ConvForwardBatchedPrepacked(x *tensor.Tensor, wp *PackedB, wk int, epi *Epilogue, y *tensor.Tensor, stride, pad int, tr *obs.Ring, id uint64) {
	xs, ys := x.Shape(), y.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, oh, ow := ys[1], ys[2], ys[3]
	if (h+2*pad-wk)/stride+1 != oh || (wd+2*pad-wk)/stride+1 != ow || ys[0] != n {
		panic(fmt.Sprintf("kernels: prepacked conv output %v inconsistent with input %v k=%d s=%d p=%d", ys, xs, wk, stride, pad))
	}
	ckk := c * wk * wk
	if wp.k != ckk || wp.n != f {
		panic(fmt.Sprintf("kernels: prepacked weights %dx%d, conv needs %dx%d", wp.k, wp.n, ckk, f))
	}
	plane := oh * ow
	cols := n * plane
	xd, yd := x.Data(), y.Data()

	outBuf := defaultWS.Get(cols * f)
	out := *outBuf
	im := im2colASrc{x: xd, c: c, h: h, w: wd, k: wk, stride: stride, pad: pad, oh: oh, ow: ow}
	gemmPacked(true, false, cols, f, ckk, 1, nil, nil, 0, out, wp, epi, &im, tr, id)

	var t int64
	if tr != nil {
		t = obs.Start()
	}
	uj := convUnshuffleTJobPool.Get().(*convUnshuffleTJob)
	uj.out, uj.yd = out, yd
	uj.f, uj.plane = f, plane
	parallelChunks(n*((f+unshuffleFBlk-1)/unshuffleFBlk), uj)
	uj.out, uj.yd = nil, nil
	convUnshuffleTJobPool.Put(uj)
	tr.Record(obs.StageUnshuffle, 0, id, t, int64(f*cols)*4)
	defaultWS.Put(outBuf)
}

// convUnshuffleTJob transposes the transposed-GEMM output [N*OH*OW, F] into
// the NCHW output [N, F, OH*OW] as a blocked transpose: work items are
// (sample, 16-filter block) pairs, so each item reads one cache line of the
// source per spatial position and maintains 16 sequential write streams
// (one per filter plane) instead of scattering every row across all F
// planes. Bias lives in the GEMM epilogue, not here.
type convUnshuffleTJob struct {
	out, yd  []float32
	f, plane int
}

// unshuffleFBlk is the filter-block width of the transpose: one block's
// write streams (16 x 64B lines) sit comfortably in L1.
const unshuffleFBlk = 16

var convUnshuffleTJobPool = sync.Pool{New: func() any { return new(convUnshuffleTJob) }}

func (j *convUnshuffleTJob) RunChunk(lo, hi int) {
	f, plane := j.f, j.plane
	nfb := (f + unshuffleFBlk - 1) / unshuffleFBlk
	for item := lo; item < hi; item++ {
		ni, fb := item/nfb, item%nfb
		f0 := fb * unshuffleFBlk
		fn := min(unshuffleFBlk, f-f0)
		src := j.out[ni*plane*f:]
		dst := j.yd[ni*f*plane:]
		for q := 0; q < plane; q++ {
			s := src[q*f+f0 : q*f+f0+fn]
			for o, v := range s {
				dst[(f0+o)*plane+q] = v
			}
		}
	}
}

// im2colASrc describes an implicit GEMM A operand: op(A) is the transposed
// im2col column matrix of a NCHW input, materialized micro-panel by
// micro-panel inside the GEMM's own pack-A phase instead of being written
// out (and re-read) as a cols x CKK scratch matrix. Row i of op(A) is
// spatial output position i (sample-major), column p is kernel tap
// (ci, kh, kw) = (p/k², (p%k²)/k, p%k).
type im2colASrc struct {
	x                               []float32
	c, h, w, k, stride, pad, oh, ow int
}

// packAIm2col is packAPanels for an implicit im2col operand: panel pnl holds
// op(A) rows pnl*MR..+MR of the current K panel, MR-interleaved and scaled
// by alpha, gathered straight from x with out-of-image taps reading zero.
// Each value is bit-identical to what the explicit im2col would have stored,
// and it lands in the same panel slot, so downstream compute cannot tell the
// difference.
//
// The walk is segment-based: consecutive op(A) rows that share an output row
// (same sample, same oy) are one segment, and for each kernel tap the whole
// segment reads a stride-strided span of one x row — for stride 1 a
// contiguous copy — with the out-of-image head and tail zero-filled. That
// turns the inner loop into a short memcpy-like sweep instead of a
// per-element (ci, kh, kw) decomposition.
func (s *gemmState) packAIm2col(lo, hi int) {
	im := &s.aIm
	kc, p0, m, alpha, mr := s.kc, s.p0, s.m, s.alpha, s.mr
	kk := im.k * im.k
	plane := im.oh * im.ow
	chPlane := im.h * im.w
	for pnl := lo; pnl < hi; pnl++ {
		dst := s.aPanel[pnl*mr*kc : (pnl+1)*mr*kc]
		i0 := pnl * mr
		rows := min(mr, m-i0)
		for r := 0; r < rows; {
			col := i0 + r
			ni := col / plane
			rem := col - ni*plane
			// 1x1 stride-1 pad-0 convolution: the column matrix IS the input
			// (taps are channels, spatial position q maps to x offset q), so
			// the segment runs to the sample boundary — straight contiguous
			// copies, no row clipping.
			if im.k == 1 && im.stride == 1 && im.pad == 0 {
				seg := min(rows-r, plane-rem)
				base := (ni*im.c+p0)*chPlane + rem
				for p := 0; p < kc; p++ {
					src := im.x[base+p*chPlane : base+p*chPlane+seg]
					o := p*mr + r
					d := dst[o : o+seg]
					for q, v := range src {
						d[q] = alpha * v
					}
				}
				r += seg
				continue
			}
			oy := rem / im.ow
			ox := rem - oy*im.ow
			seg := min(rows-r, im.ow-ox)
			iyBase := oy*im.stride - im.pad
			ixBase := ox*im.stride - im.pad
			// Taps p0..p0+kc-1 with rolling (ci, kh, kw) counters; per tap
			// the segment is one strided span of x row iy.
			ci := p0 / kk
			prem := p0 - ci*kk
			kh := prem / im.k
			kw := prem - kh*im.k
			xch := im.x[(ni*im.c+ci)*chPlane:]
			st := im.stride
			for p := 0; p < kc; p++ {
				o := p*mr + r
				d := dst[o : o+seg]
				iy := iyBase + kh
				if uint(iy) >= uint(im.h) {
					for q := range d {
						d[q] = 0
					}
				} else {
					row := xch[iy*im.w : iy*im.w+im.w]
					ix0 := ixBase + kw
					// Valid tap range within the segment — ix0+q*stride in
					// [0, w) — so the copy loop runs branch-free and the
					// out-of-image head and tail are plain zero fills.
					var qLo, qHi int
					if ix0 < 0 {
						qLo = min(seg, (-ix0+st-1)/st)
					}
					qHi = seg
					if last := im.w - 1 - ix0; last < (seg-1)*st {
						qHi = 0
						if last >= 0 {
							qHi = last/st + 1
						}
						qHi = max(qLo, qHi)
					}
					for q := 0; q < qLo; q++ {
						d[q] = 0
					}
					if st == 1 {
						for q := qLo; q < qHi; q++ {
							d[q] = alpha * row[ix0+q]
						}
					} else {
						ix := ix0 + qLo*st
						for q := qLo; q < qHi; q++ {
							d[q] = alpha * row[ix]
							ix += st
						}
					}
					for q := qHi; q < seg; q++ {
						d[q] = 0
					}
				}
				if kw++; kw == im.k {
					kw = 0
					if kh++; kh == im.k {
						kh = 0
						ci++
						xch = im.x[(ni*im.c+ci)*chPlane:]
					}
				}
			}
			r += seg
		}
		for r := rows; r < mr; r++ {
			for p := 0; p < kc; p++ {
				dst[p*mr+r] = 0
			}
		}
	}
}

// im2colBatchJob unfolds (sample, channel) pairs [lo, hi) of the whole batch
// into the shared column matrix, whose rows have stride cols = N*OH*OW.
type im2colBatchJob struct {
	x, col                          []float32
	c, h, w, k, stride, pad, oh, ow int
	cols                            int
}

var im2colBatchJobPool = sync.Pool{New: func() any { return new(im2colBatchJob) }}

func (j *im2colBatchJob) RunChunk(lo, hi int) {
	c, h, w, k, stride, pad, oh, ow := j.c, j.h, j.w, j.k, j.stride, j.pad, j.oh, j.ow
	plane := oh * ow
	for idx := lo; idx < hi; idx++ {
		ni, ci := idx/c, idx%c
		x := j.x[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
		colBase := ni * plane
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				row := j.col[((ci*k+kh)*k+kw)*j.cols+colBase:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + kh
					dst := row[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					src := x[iy*w : (iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kw
						if ix < 0 || ix >= w {
							dst[ox] = 0
						} else {
							dst[ox] = src[ix]
						}
					}
				}
			}
		}
	}
}

// convUnshuffleJob transposes the batched GEMM output [F, N*OH*OW] into the
// NCHW output [N, F, OH*OW], adding the per-filter bias in the same pass.
type convUnshuffleJob struct {
	out, yd, bias  []float32
	f, plane, cols int
}

var convUnshuffleJobPool = sync.Pool{New: func() any { return new(convUnshuffleJob) }}

func (j *convUnshuffleJob) RunChunk(lo, hi int) {
	for idx := lo; idx < hi; idx++ {
		ni, fi := idx/j.f, idx%j.f
		src := j.out[fi*j.cols+ni*j.plane : fi*j.cols+(ni+1)*j.plane]
		dst := j.yd[idx*j.plane : (idx+1)*j.plane]
		if j.bias != nil {
			b := j.bias[fi]
			for q, v := range src {
				dst[q] = v + b
			}
		} else {
			copy(dst, src)
		}
	}
}
