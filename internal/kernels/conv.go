package kernels

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ConvAlgo selects the convolution implementation, mirroring cuDNN's
// algorithm choices (the paper relies on cuDNN selecting among algorithms;
// we provide direct and im2col+GEMM).
type ConvAlgo int

// Convolution algorithm choices.
const (
	// ConvAuto picks the GEMM-lowered path (no column buffer) for 1x1
	// kernels, im2col+GEMM when the implied GEMM is large enough to amortize
	// the column buffer, and direct otherwise.
	ConvAuto ConvAlgo = iota
	ConvDirect
	ConvIm2col
	// conv1x1 is the internal GEMM lowering ConvAuto selects for 1x1
	// kernels; not exported because it is only valid for K=1, pad=0.
	conv1x1
)

// im2colMinWork is the multiply-accumulate count (F*OH*OW*C*K*K) above which
// im2col+GEMM beats the direct loops. Re-measured after the packed-GEMM
// rewrite (TestConvAutoCrossover prints the table): on the AVX2 dev box
// im2col already breaks even at ~600 MACs (direct 1.2x faster at 144 MACs,
// even at ~600, 1.2-2.4x slower from 2k up, 8x slower at 590k), so the old
// "oh*ow >= 16 && c*k*k >= 16" heuristic — tuned for the pre-packed GEMM —
// was routing substantial convolutions to the scalar loops. Only
// near-degenerate shapes stay direct now.
const im2colMinWork = 512

// convCheck validates the shape relationships of a convolution call and
// returns the unpacked dimensions.
func convCheck(x, w, y *tensor.Tensor, stride, pad int) (n, c, h, wd, f, k, oh, ow int) {
	xs, ws, ys := x.Shape(), w.Shape(), y.Shape()
	if len(xs) != 4 || len(ws) != 4 || len(ys) != 4 {
		panic("kernels: conv tensors must be rank 4")
	}
	n, c, h, wd = xs[0], xs[1], xs[2], xs[3]
	f, k = ws[0], ws[2]
	if ws[1] != c {
		panic(fmt.Sprintf("kernels: weight channels %d != input channels %d", ws[1], c))
	}
	if ws[3] != k {
		panic("kernels: only square kernels supported")
	}
	checkStridePad(stride, pad)
	oh = (h+2*pad-k)/stride + 1
	ow = (wd+2*pad-k)/stride + 1
	if ys[0] != n || ys[1] != f || ys[2] != oh || ys[3] != ow {
		panic(fmt.Sprintf("kernels: output shape %v, want [%d %d %d %d]", ys, n, f, oh, ow))
	}
	return
}

// checkStridePad rejects a stride or pad no convolution has, on the
// caller's goroutine rather than inside a pool worker.
func checkStridePad(stride, pad int) {
	if stride < 1 || pad < 0 {
		panic(fmt.Sprintf("kernels: invalid stride %d / pad %d", stride, pad))
	}
}

// ConvForward computes y = conv(x, w) + bias with the given stride and
// symmetric zero padding (Eq. 1 of the paper). bias may be nil.
// x: [N,C,H,W], w: [F,C,K,K], y: [N,F,OH,OW].
func ConvForward(x, w *tensor.Tensor, bias []float32, y *tensor.Tensor, stride, pad int, algo ConvAlgo) {
	n, c, _, _, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	if algo == ConvAuto {
		switch {
		case k == 1 && pad == 0:
			// 1x1 convolutions lower directly onto the packed GEMM with no
			// column buffer (a gather for strided cases); always a win over
			// the scalar direct loops.
			algo = conv1x1
		case f*oh*ow*c*k*k >= im2colMinWork:
			algo = ConvIm2col
		default:
			algo = ConvDirect
		}
	}
	switch algo {
	case ConvDirect:
		convForwardDirect(x, w, y, stride, pad)
	case ConvIm2col:
		convForwardIm2col(x, w, y, stride, pad)
	case conv1x1:
		convForward1x1(x, w, y, stride, pad)
	default:
		panic(fmt.Sprintf("kernels: unknown conv algorithm %d", algo))
	}
	if bias != nil {
		if len(bias) != f {
			panic("kernels: bias length != filters")
		}
		j := biasAddJobPool.Get().(*biasAddJob)
		j.yd, j.bias, j.f, j.plane = y.Data(), bias, f, oh*ow
		parallelChunks(n*f, j)
		j.yd, j.bias = nil, nil
		biasAddJobPool.Put(j)
	}
	_ = c
}

// biasAddJob adds the per-filter bias over (sample, filter) planes; pooled
// so the warm ConvForward path stays allocation-free.
type biasAddJob struct {
	yd       []float32
	bias     []float32
	f, plane int
}

var biasAddJobPool = sync.Pool{New: func() any { return new(biasAddJob) }}

func (j *biasAddJob) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		b := j.bias[i%j.f]
		row := j.yd[i*j.plane : (i+1)*j.plane]
		for q := range row {
			row[q] += b
		}
	}
}

// directConvJob carries one direct-convolution invocation; pooled so the
// warm direct path (chosen by ConvAuto for tiny shapes, which the serving
// Predict path can hit) stays allocation-free.
type directConvJob struct {
	xd, wwd, yd            []float32
	c, h, wd, f, k, oh, ow int
	stride, pad            int
}

var directConvJobPool = sync.Pool{New: func() any { return new(directConvJob) }}

// convForwardDirect is the straightforward 7-loop convolution, parallel over
// (sample, filter) pairs with row-contiguous inner accumulation.
func convForwardDirect(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	j := directConvJobPool.Get().(*directConvJob)
	j.xd, j.wwd, j.yd = x.Data(), w.Data(), y.Data()
	j.c, j.h, j.wd, j.f, j.k, j.oh, j.ow = c, h, wd, f, k, oh, ow
	j.stride, j.pad = stride, pad
	parallelChunks(n*f, j)
	j.xd, j.wwd, j.yd = nil, nil, nil
	directConvJobPool.Put(j)
}

func (j *directConvJob) RunChunk(lo, hi int) {
	c, h, wd, f, k, oh, ow := j.c, j.h, j.wd, j.f, j.k, j.oh, j.ow
	stride, pad := j.stride, j.pad
	xd, wwd, yd := j.xd, j.wwd, j.yd
	for nf := lo; nf < hi; nf++ {
		ni, fi := nf/f, nf%f
		yBase := (ni*f + fi) * oh * ow
		for oy := 0; oy < oh; oy++ {
			yRow := yd[yBase+oy*ow : yBase+(oy+1)*ow]
			for i := range yRow {
				yRow[i] = 0
			}
			iy0 := oy*stride - pad
			for ci := 0; ci < c; ci++ {
				xBase := (ni*c + ci) * h * wd
				wBase := ((fi*c + ci) * k) * k
				for kh := 0; kh < k; kh++ {
					iy := iy0 + kh
					if iy < 0 || iy >= h {
						continue
					}
					xRow := xd[xBase+iy*wd : xBase+(iy+1)*wd]
					wRow := wwd[wBase+kh*k : wBase+(kh+1)*k]
					for kw := 0; kw < k; kw++ {
						wv := wRow[kw]
						if wv == 0 {
							continue
						}
						ix0 := -pad + kw
						// Valid ox range so that ix = ox*stride+ix0 is in [0, wd).
						oxLo := 0
						if ix0 < 0 {
							oxLo = (-ix0 + stride - 1) / stride
						}
						oxHi := ow
						if maxOx := (wd - 1 - ix0) / stride; maxOx+1 < oxHi {
							oxHi = maxOx + 1
						}
						ix := oxLo*stride + ix0
						for ox := oxLo; ox < oxHi; ox++ {
							yRow[ox] += wv * xRow[ix]
							ix += stride
						}
					}
				}
			}
		}
	}
}

// convForward1x1 lowers a 1x1 convolution (pad must be 0) directly onto the
// packed GEMM: for stride 1 each sample's input is already the [C, OH*OW]
// B matrix, so y[n] = W[F,C] * x[n] with no column buffer at all; strided
// 1x1 convolutions gather the subsampled plane through the im2col path.
func convForward1x1(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, _, _, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	if k != 1 || pad != 0 {
		panic("kernels: convForward1x1 requires K=1, pad=0")
	}
	if stride != 1 {
		convForwardIm2col(x, w, y, stride, pad)
		return
	}
	plane := oh * ow
	xd, wwd, yd := x.Data(), w.Data(), y.Data()
	for ni := 0; ni < n; ni++ {
		GemmNN(f, plane, c, 1, wwd, xd[ni*c*plane:(ni+1)*c*plane], 0, yd[ni*f*plane:(ni+1)*f*plane])
	}
}

// convForwardIm2col lowers convolution to GEMM: for each sample, unfold the
// input into a [C*K*K, OH*OW] column matrix and multiply by the [F, C*K*K]
// filter matrix. The column matrix lives in the default workspace, so the
// warm path allocates nothing.
func convForwardIm2col(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	xd, wwd, yd := x.Data(), w.Data(), y.Data()
	ckk := c * k * k
	plane := oh * ow
	colBuf := defaultWS.Get(ckk * plane)
	col := *colBuf
	for ni := 0; ni < n; ni++ {
		im2col(xd[ni*c*h*wd:(ni+1)*c*h*wd], c, h, wd, k, stride, pad, oh, ow, col)
		GemmNN(f, plane, ckk, 1, wwd, col, 0, yd[ni*f*plane:(ni+1)*f*plane])
	}
	defaultWS.Put(colBuf)
}

// im2colJob unfolds channels [lo, hi) of one sample; pooled for the
// allocation-free warm path.
type im2colJob struct {
	x, col                       []float32
	h, w, k, stride, pad, oh, ow int
}

var im2colJobPool = sync.Pool{New: func() any { return new(im2colJob) }}

func (j *im2colJob) RunChunk(clo, chi int) {
	h, w, k, stride, pad, oh, ow := j.h, j.w, j.k, j.stride, j.pad, j.oh, j.ow
	for ci := clo; ci < chi; ci++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				row := j.col[((ci*k+kh)*k+kw)*oh*ow:]
				// Output columns [oxLo, oxHi) read input column
				// ox*stride + ix0; the rest are zero padding.
				ix0 := kw - pad
				oxLo, oxHi := clipTaps(ix0, stride, ow, w)
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + kh
					dst := row[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						clear(dst)
						continue
					}
					src := j.x[(ci*h+iy)*w : (ci*h+iy+1)*w]
					clear(dst[:oxLo])
					clear(dst[oxHi:])
					if stride == 1 {
						copy(dst[oxLo:oxHi], src[oxLo+ix0:])
						continue
					}
					ix := oxLo*stride + ix0
					for ox := oxLo; ox < oxHi; ox++ {
						dst[ox] = src[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// im2col unfolds one sample's [C,H,W] input into a [C*K*K, OH*OW] matrix.
func im2col(x []float32, c, h, w, k, stride, pad, oh, ow int, col []float32) {
	j := im2colJobPool.Get().(*im2colJob)
	j.x, j.col = x, col
	j.h, j.w, j.k, j.stride, j.pad, j.oh, j.ow = h, w, k, stride, pad, oh, ow
	parallelChunks(c, j)
	j.x, j.col = nil, nil
	im2colJobPool.Put(j)
}

// ConvBackwardDataRegion computes the error signal dL/dx (Eq. 3) for a
// rectangular region of the global input, given a region of the global
// output gradient. Per sample it lowers onto the packed GEMM: col = Wᵀ·dy
// ([C*K*K, dyH*dyW] via GemmTN), then a col2im adds every column entry into
// the input position its window tap covered, clipped to dx's region. Each
// dx element still receives exactly the contributions of the dy positions
// inside dy's region, so no cross-region reduction is needed afterwards.
//
// dx covers global input rows [xLoH, xLoH+dxH) and columns [xLoW, xLoW+dxW);
// dy covers global output rows [yLoH, yLoH+dyH) and columns [yLoW, ...);
// yLoH/yLoW may be negative when dy's region includes padding rows, which
// must hold zeros (core's halo buffers are zero-initialized). The
// caller guarantees dy's region contains every output position that touches
// dx's region (dist.ConvGeom.RequiredBwd). For a full sequential backward
// pass use ConvBackwardData.
func ConvBackwardDataRegion(dy, w, dx *tensor.Tensor, stride, pad, xLoH, xLoW, yLoH, yLoW int) {
	ds, ws, xs := dy.Shape(), w.Shape(), dx.Shape()
	n, f, dyH, dyW := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	if ws[0] != f {
		panic("kernels: weight filters != dy channels")
	}
	if xs[0] != n || xs[1] != c {
		panic(fmt.Sprintf("kernels: dx shape %v incompatible with dy %v and w %v", xs, ds, ws))
	}
	checkStridePad(stride, pad)
	dxH, dxW := xs[2], xs[3]
	dyPlane, dxPlane := dyH*dyW, dxH*dxW
	dyd, wwd, dxd := dy.Data(), w.Data(), dx.Data()
	if k == 1 && stride == 1 && pad == 0 && xLoH == yLoH && xLoW == yLoW && dxH == dyH && dxW == dyW {
		// Coinciding 1x1 regions: dx[n] = Wᵀ[C,F]·dy[n] is the whole pass.
		for ni := 0; ni < n; ni++ {
			GemmTN(c, dyPlane, f, 1, wwd, dyd[ni*f*dyPlane:(ni+1)*f*dyPlane], 0, dxd[ni*c*dxPlane:(ni+1)*c*dxPlane])
		}
		return
	}
	ckk := c * k * k
	colBuf := defaultWS.Get(ckk * dyPlane)
	j := col2imJobPool.Get().(*col2imJob)
	*j = col2imJob{
		col: *colBuf, k: k, stride: stride, pad: pad,
		dyH: dyH, dyW: dyW, dxH: dxH, dxW: dxW,
		xLoH: xLoH, xLoW: xLoW, yLoH: yLoH, yLoW: yLoW,
	}
	for ni := 0; ni < n; ni++ {
		GemmTN(ckk, dyPlane, f, 1, wwd, dyd[ni*f*dyPlane:(ni+1)*f*dyPlane], 0, j.col)
		j.dx = dxd[ni*c*dxPlane : (ni+1)*c*dxPlane]
		parallelChunks(c, j)
	}
	*j = col2imJob{}
	col2imJobPool.Put(j)
	defaultWS.Put(colBuf)
}

// col2imJob overwrites channels [lo, hi) of one sample's dx region with the
// sum of their column-matrix entries; pooled so the warm backward-data path
// dispatches with no per-call allocation.
type col2imJob struct {
	col, dx                []float32
	k, stride, pad         int
	dyH, dyW, dxH, dxW     int
	xLoH, xLoW, yLoH, yLoW int
}

var col2imJobPool = sync.Pool{New: func() any { return new(col2imJob) }}

func (j *col2imJob) RunChunk(clo, chi int) {
	k, s := j.k, j.stride
	dyW, dxW := j.dyW, j.dxW
	dyPlane, dxPlane := j.dyH*dyW, j.dxH*dxW
	for ci := clo; ci < chi; ci++ {
		plane := j.dx[ci*dxPlane : (ci+1)*dxPlane]
		clear(plane)
		for kh := 0; kh < k; kh++ {
			// Local dy row oyl feeds local dx row oyl*s + iy0 (likewise
			// columns with ix0).
			iy0 := j.yLoH*s - j.pad + kh - j.xLoH
			oyLo, oyHi := clipTaps(iy0, s, j.dyH, j.dxH)
			for kw := 0; kw < k; kw++ {
				ix0 := j.yLoW*s - j.pad + kw - j.xLoW
				oxLo, oxHi := clipTaps(ix0, s, dyW, dxW)
				if oxLo >= oxHi {
					continue
				}
				row := j.col[((ci*k+kh)*k+kw)*dyPlane:]
				for oyl := oyLo; oyl < oyHi; oyl++ {
					src := row[oyl*dyW+oxLo : oyl*dyW+oxHi]
					dst := plane[(oyl*s+iy0)*dxW:]
					if s == 1 {
						dst = dst[oxLo+ix0 : oxHi+ix0]
						for i, v := range src {
							dst[i] += v
						}
						continue
					}
					ix := oxLo*s + ix0
					for _, v := range src {
						dst[ix] += v
						ix += s
					}
				}
			}
		}
	}
}

// clipTaps returns the output range [lo, hi), 0 <= lo <= hi <= outN, whose
// input index o*s + i0 lands in [0, inN).
func clipTaps(i0, s, outN, inN int) (lo, hi int) {
	if i0 < 0 {
		lo = min((-i0+s-1)/s, outN)
	}
	hi = outN
	if lim := inN - i0; lim <= 0 {
		hi = 0
	} else {
		hi = min(hi, (lim+s-1)/s)
	}
	return lo, max(lo, hi)
}

// ConvBackwardData computes the full error signal dL/dx (Eq. 3) for a
// sequential (single-device) layer.
func ConvBackwardData(dy, w, dx *tensor.Tensor, stride, pad int) {
	ConvBackwardDataRegion(dy, w, dx, stride, pad, 0, 0, 0, 0)
}

// ConvBackwardFilter computes the local weight-gradient contribution (Eq. 2):
// dw[f,c,a,b] = sum over the samples and output positions present in dy of
// dy * x. When accumulate is false dw is overwritten, otherwise added to
// (used when looping over micro-batches). x and dy may be local shards: in
// distributed operation x is the halo-extended buffer and pad must be 0; the
// global sum is completed by an allreduce over all processors (Section III-A).
// Per sample it lowers onto the packed GEMM as dw[F, C*K*K] += dy[F, OH*OW] ·
// col[C*K*K, OH*OW]ᵀ (GemmNT), with col the im2col unfolding of x, or x
// itself for a 1x1, stride-1, unpadded convolution.
func ConvBackwardFilter(x, dy, dw *tensor.Tensor, stride, pad int, accumulate bool) {
	xs, ds, ws := x.Shape(), dy.Shape(), dw.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, oh, ow := ds[1], ds[2], ds[3]
	k := ws[2]
	if ds[0] != n || ws[0] != f || ws[1] != c || ws[3] != k {
		panic(fmt.Sprintf("kernels: bwd-filter shapes x=%v dy=%v dw=%v inconsistent", xs, ds, ws))
	}
	checkStridePad(stride, pad)
	if !accumulate {
		dw.Zero()
	}
	ckk, plane, xPlane := c*k*k, oh*ow, h*wd
	xd, dyd, dwd := x.Data(), dy.Data(), dw.Data()
	var colBuf *[]float32
	if k != 1 || stride != 1 || pad != 0 || oh != h || ow != wd {
		colBuf = defaultWS.Get(ckk * plane)
	}
	for ni := 0; ni < n; ni++ {
		col := xd[ni*c*xPlane : (ni+1)*c*xPlane]
		if colBuf != nil {
			im2col(col, c, h, wd, k, stride, pad, oh, ow, *colBuf)
			col = *colBuf
		}
		GemmNT(f, ckk, plane, 1, dyd[ni*f*plane:(ni+1)*f*plane], col, 1, dwd)
	}
	defaultWS.Put(colBuf)
}

// BiasBackward computes db[f] = sum over samples and positions of dy.
func BiasBackward(dy *tensor.Tensor, db []float32, accumulate bool) {
	ds := dy.Shape()
	n, f, plane := ds[0], ds[1], ds[2]*ds[3]
	if len(db) != f {
		panic("kernels: bias gradient length != filters")
	}
	if !accumulate {
		for i := range db {
			db[i] = 0
		}
	}
	j := biasBwdJobPool.Get().(*biasBwdJob)
	*j = biasBwdJob{dyd: dy.Data(), db: db, n: n, f: f, plane: plane}
	parallelChunks(f, j)
	*j = biasBwdJob{}
	biasBwdJobPool.Put(j)
}

// biasBwdJob is the pooled chunk worker of BiasBackward.
type biasBwdJob struct {
	dyd, db     []float32
	n, f, plane int
}

var biasBwdJobPool = sync.Pool{New: func() any { return new(biasBwdJob) }}

func (jb *biasBwdJob) RunChunk(flo, fhi int) {
	n, f, plane := jb.n, jb.f, jb.plane
	dyd, db := jb.dyd, jb.db
	{
		for fi := flo; fi < fhi; fi++ {
			var acc float32
			for ni := 0; ni < n; ni++ {
				row := dyd[(ni*f+fi)*plane : (ni*f+fi+1)*plane]
				for _, v := range row {
					acc += v
				}
			}
			db[fi] += acc
		}
	}
}
