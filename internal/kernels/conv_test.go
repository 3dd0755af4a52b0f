package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// naiveConvForward is an independent brute-force implementation of Eq. 1
// used as the test oracle.
func naiveConvForward(x, w *tensor.Tensor, bias []float32, stride, pad int) *tensor.Tensor {
	xs, ws := x.Shape(), w.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, k := ws[0], ws[2]
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	y := tensor.New(n, f, oh, ow)
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ci := 0; ci < c; ci++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += float64(x.At4(ni, ci, iy, ix)) * float64(w.At4(fi, ci, kh, kw))
							}
						}
					}
					if bias != nil {
						acc += float64(bias[fi])
					}
					y.Set4(float32(acc), ni, fi, oy, ox)
				}
			}
		}
	}
	return y
}

// naiveConvBackwardData brute-forces Eq. 3.
func naiveConvBackwardData(dy, w *tensor.Tensor, xShape []int, stride, pad int) *tensor.Tensor {
	ds, ws := dy.Shape(), w.Shape()
	n, f, oh, ow := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	dx := tensor.New(xShape...)
	h, wd := xShape[2], xShape[3]
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(ni, fi, oy, ox)
					for ci := 0; ci < c; ci++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								dx.Set4(dx.At4(ni, ci, iy, ix)+g*w.At4(fi, ci, kh, kw), ni, ci, iy, ix)
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// naiveConvBackwardFilter brute-forces Eq. 2.
func naiveConvBackwardFilter(x, dy *tensor.Tensor, wShape []int, stride, pad int) *tensor.Tensor {
	xs, ds := x.Shape(), dy.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, oh, ow := ds[1], ds[2], ds[3]
	k := wShape[2]
	dw := tensor.New(wShape...)
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			for kh := 0; kh < k; kh++ {
				for kw := 0; kw < k; kw++ {
					var acc float64
					for ni := 0; ni < n; ni++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += float64(dy.At4(ni, fi, oy, ox)) * float64(x.At4(ni, ci, iy, ix))
							}
						}
					}
					dw.Set4(float32(acc), fi, ci, kh, kw)
				}
			}
		}
	}
	return dw
}

type convCase struct {
	name                     string
	n, c, h, w, f, k, s, pad int
}

var convCases = []convCase{
	{"3x3same", 2, 3, 8, 8, 4, 3, 1, 1},
	{"1x1", 2, 5, 7, 7, 3, 1, 1, 0},
	{"5x5s2", 1, 2, 12, 12, 3, 5, 2, 2},
	{"7x7s2p3", 1, 3, 16, 16, 4, 7, 2, 3}, // ResNet conv1 geometry
	{"3x3s2", 2, 4, 9, 9, 2, 3, 2, 1},
	{"nonsquare", 1, 2, 10, 6, 2, 3, 1, 1},
	{"nopad", 1, 1, 6, 6, 1, 3, 1, 0},
}

func makeConvTensors(tc convCase, seed int64) (x, w *tensor.Tensor, bias []float32) {
	x = tensor.New(tc.n, tc.c, tc.h, tc.w)
	w = tensor.New(tc.f, tc.c, tc.k, tc.k)
	x.FillRandN(seed, 1)
	w.FillRandN(seed+1, 0.5)
	bias = make([]float32, tc.f)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := range bias {
		bias[i] = rng.Float32() - 0.5
	}
	return
}

func TestConvForwardDirectMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, bias := makeConvTensors(tc, 10)
		want := naiveConvForward(x, w, bias, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, bias, got, tc.s, tc.pad, ConvDirect)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: direct forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvForwardIm2colMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 20)
		want := naiveConvForward(x, w, nil, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, nil, got, tc.s, tc.pad, ConvIm2col)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: im2col forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvForwardAutoMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, bias := makeConvTensors(tc, 30)
		want := naiveConvForward(x, w, bias, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, bias, got, tc.s, tc.pad, ConvAuto)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: auto forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardDataMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 40)
		y := naiveConvForward(x, w, nil, tc.s, tc.pad)
		dy := tensor.New(y.Shape()...)
		dy.FillRandN(41, 1)
		want := naiveConvBackwardData(dy, w, x.Shape(), tc.s, tc.pad)
		got := tensor.New(x.Shape()...)
		ConvBackwardData(dy, w, got, tc.s, tc.pad)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: bwd-data rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardFilterMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 60)
		y := naiveConvForward(x, w, nil, tc.s, tc.pad)
		dy := tensor.New(y.Shape()...)
		dy.FillRandN(61, 1)
		want := naiveConvBackwardFilter(x, dy, w.Shape(), tc.s, tc.pad)
		got := tensor.New(w.Shape()...)
		ConvBackwardFilter(x, dy, got, tc.s, tc.pad, false)
		if d := got.RelDiff(want); d > 1e-4 {
			t.Errorf("%s: bwd-filter rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardFilterAccumulate(t *testing.T) {
	tc := convCases[0]
	x, w, _ := makeConvTensors(tc, 70)
	oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
	dy := tensor.New(tc.n, tc.f, oh, oh)
	dy.FillRandN(71, 1)
	once := tensor.New(w.Shape()...)
	ConvBackwardFilter(x, dy, once, tc.s, tc.pad, false)
	twice := tensor.New(w.Shape()...)
	ConvBackwardFilter(x, dy, twice, tc.s, tc.pad, false)
	ConvBackwardFilter(x, dy, twice, tc.s, tc.pad, true)
	once.Scale(2)
	if d := once.RelDiff(twice); d > 1e-5 {
		t.Errorf("accumulate: rel diff %g", d)
	}
}

func TestConvBackwardDataRegionTilesEqualFull(t *testing.T) {
	// Computing dx in tiles with the region kernel — split along H, along W,
	// and into quadrants — must equal the full pass: the property the
	// distributed algorithm relies on.
	type span struct{ lo, hi int }
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 80)
		oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
		ow := (tc.w+2*tc.pad-tc.k)/tc.s + 1
		dy := tensor.New(tc.n, tc.f, oh, ow)
		dy.FillRandN(81, 1)
		want := tensor.New(x.Shape()...)
		ConvBackwardData(dy, w, want, tc.s, tc.pad)

		sh, sw := tc.h/2, tc.w/2
		for _, ph := range []span{{0, sh}, {sh, tc.h}, {0, tc.h}} {
			for _, pw := range []span{{0, sw}, {sw, tc.w}, {0, tc.w}} {
				dxPart := tensor.New(tc.n, tc.c, ph.hi-ph.lo, pw.hi-pw.lo)
				ConvBackwardDataRegion(dy, w, dxPart, tc.s, tc.pad, ph.lo, pw.lo, 0, 0)
				for ni := 0; ni < tc.n; ni++ {
					for ci := 0; ci < tc.c; ci++ {
						for iy := ph.lo; iy < ph.hi; iy++ {
							for ix := pw.lo; ix < pw.hi; ix++ {
								g := dxPart.At4(ni, ci, iy-ph.lo, ix-pw.lo)
								if d := absDiff(g, want.At4(ni, ci, iy, ix)); d > 1e-4 {
									t.Fatalf("%s: tile %v x %v dx(%d,%d,%d,%d) diff %g", tc.name, ph, pw, ni, ci, iy, ix, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// refConvBackwardDataRegion is the scalar gather loop the GEMM lowering
// replaced, kept as the region-aware reference: each dx element of the
// region sums w * dy over every dy position inside dy's region whose window
// covers it.
func refConvBackwardDataRegion(dy, w, dx *tensor.Tensor, stride, pad, xLoH, xLoW, yLoH, yLoW int) {
	ds, ws, xs := dy.Shape(), w.Shape(), dx.Shape()
	n, f, dyH, dyW := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	dxH, dxW := xs[2], xs[3]
	dyd, wwd, dxd := dy.Data(), w.Data(), dx.Data()
	fStrideDy := dyH * dyW
	for nc := 0; nc < n*c; nc++ {
		ni, ci := nc/c, nc%c
		dxBase := (ni*c + ci) * dxH * dxW
		dyBaseN := ni * f * fStrideDy
		for ihl := 0; ihl < dxH; ihl++ {
			ih := xLoH + ihl
			dxRow := dxd[dxBase+ihl*dxW : dxBase+(ihl+1)*dxW]
			for i := range dxRow {
				dxRow[i] = 0
			}
			for kh := 0; kh < k; kh++ {
				t := ih + pad - kh
				if t < 0 || t%stride != 0 {
					continue
				}
				oyl := t/stride - yLoH
				if oyl < 0 || oyl >= dyH {
					continue
				}
				for kw := 0; kw < k; kw++ {
					for iwl := 0; iwl < dxW; iwl++ {
						u := xLoW + iwl + pad - kw
						if u < 0 || u%stride != 0 {
							continue
						}
						oxl := u/stride - yLoW
						if oxl < 0 || oxl >= dyW {
							continue
						}
						var acc float32
						dyOff := dyBaseN + oyl*dyW + oxl
						wOff := (ci*k+kh)*k + kw
						for fi := 0; fi < f; fi++ {
							acc += dyd[dyOff] * wwd[wOff]
							dyOff += fStrideDy
							wOff += c * k * k
						}
						dxRow[iwl] += acc
					}
				}
			}
		}
	}
}

// bwdCase is one backward geometry: a global input (n, c, h, w), its
// filter (f, k, s, pad), a dx sub-region and the dy region it reads.
type bwdCase struct {
	n, c, f, h, w, k, s, pad int
	xLoH, xLoW, dxH, dxW     int
	yLoH, yLoW, dyH, dyW     int
	oh, ow                   int // natural output size of the global input
}

// randBwdCase draws k in {1,3,5}, s in {1,2}, pad <= k/2, odd or even H/W,
// n/c/f in 1..5, a random dx sub-region of the global input and a dy region
// shaped like core's halo-extended dyExt: the outputs the dx region needs,
// give or take a row or column, so yLo may be negative. A third of the
// 1x1/s1/p0 draws take coinciding regions, the direct-GEMM path.
func randBwdCase(rng *rand.Rand) bwdCase {
	var b bwdCase
	b.k = 1 + 2*rng.Intn(3)
	b.s = 1 + rng.Intn(2)
	b.pad = rng.Intn(b.k/2 + 1)
	b.h = b.k + rng.Intn(9)
	b.w = b.k + rng.Intn(9)
	b.n, b.c, b.f = 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
	b.oh = (b.h+2*b.pad-b.k)/b.s + 1
	b.ow = (b.w+2*b.pad-b.k)/b.s + 1
	sub := func(size int) (lo, n, yLo, yN int) {
		lo = rng.Intn(size)
		n = 1 + rng.Intn(size-lo)
		// Output rows whose window touches [lo, lo+n), widened or narrowed
		// by up to one row on each side.
		yLo = floorDiv(lo+b.pad-(b.k-1)+b.s-1, b.s) + rng.Intn(3) - 1
		yHi := floorDiv(lo+n-1+b.pad, b.s) + 1 + rng.Intn(3) - 1
		if yN = yHi - yLo; yN < 1 {
			yN = 1
		}
		return
	}
	b.xLoH, b.dxH, b.yLoH, b.dyH = sub(b.h)
	b.xLoW, b.dxW, b.yLoW, b.dyW = sub(b.w)
	if b.k == 1 && b.s == 1 && b.pad == 0 && rng.Intn(3) == 0 {
		b.yLoH, b.dyH, b.yLoW, b.dyW = b.xLoH, b.dxH, b.xLoW, b.dxW
	}
	return b
}

// zeroPadding clears the entries of a dy region (global origin yLoH, yLoW)
// that lie outside the [0, oh) x [0, ow) global output, as core's
// zero-initialized dyExt buffer holds them.
func zeroPadding(dy *tensor.Tensor, yLoH, yLoW, oh, ow int) {
	s := dy.Shape()
	for ni := 0; ni < s[0]; ni++ {
		for fi := 0; fi < s[1]; fi++ {
			for r := 0; r < s[2]; r++ {
				for q := 0; q < s[3]; q++ {
					if oy, ox := yLoH+r, yLoW+q; oy < 0 || oy >= oh || ox < 0 || ox >= ow {
						dy.Set4(0, ni, fi, r, q)
					}
				}
			}
		}
	}
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// Differential: the GEMM-lowered backward kernels match the scalar
// references over random geometries, regions and accumulate modes.
func TestConvBackwardRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var negY, posX, direct1x1 int
	for i := 0; i < 300; i++ {
		b := randBwdCase(rng)
		if b.yLoH < 0 || b.yLoW < 0 {
			negY++
		}
		if b.xLoH > 0 || b.xLoW > 0 {
			posX++
		}
		if b.k == 1 && b.s == 1 && b.pad == 0 && b.yLoH == b.xLoH && b.yLoW == b.xLoW && b.dyH == b.dxH && b.dyW == b.dxW {
			direct1x1++
		}
		seed := int64(1000 + 10*i)
		w := tensor.New(b.f, b.c, b.k, b.k)
		w.FillRandN(seed, 0.5)

		dy := tensor.New(b.n, b.f, b.dyH, b.dyW)
		dy.FillRandN(seed+1, 1)
		zeroPadding(dy, b.yLoH, b.yLoW, b.oh, b.ow)
		want := tensor.New(b.n, b.c, b.dxH, b.dxW)
		refConvBackwardDataRegion(dy, w, want, b.s, b.pad, b.xLoH, b.xLoW, b.yLoH, b.yLoW)
		got := tensor.New(b.n, b.c, b.dxH, b.dxW)
		got.FillRandN(seed+2, 9) // stale contents must be overwritten
		ConvBackwardDataRegion(dy, w, got, b.s, b.pad, b.xLoH, b.xLoW, b.yLoH, b.yLoW)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Fatalf("case %d %+v: bwd-data rel diff %g", i, b, d)
		}

		x := tensor.New(b.n, b.c, b.h, b.w)
		x.FillRandN(seed+3, 1)
		dyFull := tensor.New(b.n, b.f, b.oh, b.ow)
		dyFull.FillRandN(seed+4, 1)
		wantW := naiveConvBackwardFilter(x, dyFull, w.Shape(), b.s, b.pad)
		gotW := tensor.New(w.Shape()...)
		accumulate := rng.Intn(2) == 0
		if accumulate {
			gotW.FillRandN(seed+5, 1)
			wantW.AddScaled(gotW, 1)
		} else {
			gotW.FillRandN(seed+5, 9) // overwritten when not accumulating
		}
		ConvBackwardFilter(x, dyFull, gotW, b.s, b.pad, accumulate)
		if d := gotW.RelDiff(wantW); d > 1e-4 {
			t.Fatalf("case %d %+v accumulate=%v: bwd-filter rel diff %g", i, b, accumulate, d)
		}
	}
	if negY == 0 || posX == 0 || direct1x1 == 0 {
		t.Fatalf("draws missed a region class: %d negative yLo, %d positive xLo, %d direct 1x1", negY, posX, direct1x1)
	}
}

// The backward kernels are bitwise reproducible from run to run and across
// worker counts: the GEMM's tiles and the col2im's channels are disjoint
// and every element accumulates in a fixed order.
func TestConvBackwardBitwiseRepeatable(t *testing.T) {
	for _, k := range []int{1, 3} {
		x := tensor.New(2, 8, 24, 24)
		x.FillRandN(1, 1)
		w := tensor.New(16, 8, k, k)
		w.FillRandN(2, 0.5)
		pad := k / 2
		dy := tensor.New(2, 16, 24, 24)
		dy.FillRandN(3, 1)
		run := func(workers int) (dx, dw *tensor.Tensor) {
			old := SetMaxWorkers(workers)
			defer SetMaxWorkers(old)
			dx = tensor.New(x.Shape()...)
			dw = tensor.New(w.Shape()...)
			ConvBackwardData(dy, w, dx, 1, pad)
			ConvBackwardFilter(x, dy, dw, 1, pad, false)
			return
		}
		dx0, dw0 := run(1)
		for _, workers := range []int{1, 4} {
			dx, dw := run(workers)
			name := fmt.Sprintf("k=%d workers=%d", k, workers)
			bitsEqual(t, name+" dx", dx.Data(), dx0.Data())
			bitsEqual(t, name+" dw", dw.Data(), dw0.Data())
		}
	}
}

// A NaN in dy must reach every dx element its window covers and the whole
// dw row of its filter: the GEMM lowering has no zero-skip to hide it.
func TestConvBackwardPropagatesNaN(t *testing.T) {
	const n, c, h, f, k, s, pad = 2, 3, 9, 4, 3, 2, 1
	oh := (h+2*pad-k)/s + 1
	x := tensor.New(n, c, h, h)
	x.FillRandN(1, 1)
	w := tensor.New(f, c, k, k)
	w.FillRandN(2, 0.5)
	dy := tensor.New(n, f, oh, oh)
	dy.FillRandN(3, 1)
	const fi, oy, ox = 2, 1, 2
	dy.Set4(float32(math.NaN()), 0, fi, oy, ox)

	dx := tensor.New(n, c, h, h)
	ConvBackwardData(dy, w, dx, s, pad)
	for ci := 0; ci < c; ci++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				iy, ix := oy*s-pad+kh, ox*s-pad+kw
				if iy < 0 || iy >= h || ix < 0 || ix >= h {
					continue
				}
				if v := dx.At4(0, ci, iy, ix); !math.IsNaN(float64(v)) {
					t.Fatalf("dx(0,%d,%d,%d) = %v, want NaN", ci, iy, ix, v)
				}
			}
		}
	}
	for _, accumulate := range []bool{false, true} {
		dw := tensor.New(f, c, k, k)
		ConvBackwardFilter(x, dy, dw, s, pad, accumulate)
		for i, v := range dw.Data()[fi*c*k*k : (fi+1)*c*k*k] {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("accumulate=%v: dw[%d][%d] = %v, want NaN", accumulate, fi, i, v)
			}
		}
	}
}

// Invalid stride or pad panics on the caller's goroutine (recoverably), even
// when the job would fan out over the worker pool.
func TestConvBackwardPanicsOnBadStridePad(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	x := tensor.New(2, 4, 6, 6)
	w := tensor.New(3, 4, 3, 3)
	dy := tensor.New(2, 3, 6, 6)
	dw := tensor.New(3, 4, 3, 3)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"data stride 0", func() { ConvBackwardDataRegion(dy, w, x, 0, 1, 0, 0, 0, 0) }},
		{"data pad -1", func() { ConvBackwardDataRegion(dy, w, x, 1, -1, 0, 0, 0, 0) }},
		{"filter stride 0", func() { ConvBackwardFilter(x, dy, dw, 0, 1, false) }},
		{"filter pad -1", func() { ConvBackwardFilter(x, dy, dw, 1, -1, false) }},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "invalid stride") {
					t.Errorf("%s: recovered %v, want an invalid stride/pad panic", tc.name, r)
				}
			}()
			tc.fn()
		}()
	}
}

func TestBiasBackward(t *testing.T) {
	dy := tensor.New(2, 3, 4, 4)
	dy.Fill(1)
	db := make([]float32, 3)
	BiasBackward(dy, db, false)
	for _, v := range db {
		if v != 32 { // 2 samples * 16 positions
			t.Fatalf("db = %v, want 32", v)
		}
	}
	BiasBackward(dy, db, true)
	if db[0] != 64 {
		t.Fatalf("accumulated db = %v, want 64", db[0])
	}
}

func TestConvPanicsOnBadShapes(t *testing.T) {
	x := tensor.New(1, 2, 8, 8)
	w := tensor.New(3, 99, 3, 3) // wrong channel count
	y := tensor.New(1, 3, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched channels did not panic")
		}
	}()
	ConvForward(x, w, nil, y, 1, 1, ConvDirect)
}

func absDiff(a, b float32) float64 {
	d := float64(a - b)
	if d < 0 {
		return -d
	}
	return d
}

// Property: direct and im2col agree on random geometries.
func TestQuickConvAlgosAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + 2*rng.Intn(3)   // 1, 3, 5
		s := 1 + rng.Intn(2)     // 1, 2
		pad := rng.Intn(k/2 + 1) // 0..K/2
		h := k + rng.Intn(10)
		w := k + rng.Intn(10)
		n := 1 + rng.Intn(2)
		c := 1 + rng.Intn(4)
		fo := 1 + rng.Intn(4)
		x := tensor.New(n, c, h, w)
		wt := tensor.New(fo, c, k, k)
		x.FillRandN(seed, 1)
		wt.FillRandN(seed+1, 0.5)
		oh := (h+2*pad-k)/s + 1
		ow := (w+2*pad-k)/s + 1
		if oh <= 0 || ow <= 0 {
			return true
		}
		y1 := tensor.New(n, fo, oh, ow)
		y2 := tensor.New(n, fo, oh, ow)
		ConvForward(x, wt, nil, y1, s, pad, ConvDirect)
		ConvForward(x, wt, nil, y2, s, pad, ConvIm2col)
		return y1.RelDiff(y2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: <conv(x,w), dy> == <x, convBwdData(dy,w)> — the adjoint identity
// that guarantees backward-data is the true transpose of forward.
func TestQuickConvAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + 2*rng.Intn(3)
		s := 1 + rng.Intn(2)
		pad := rng.Intn(k/2 + 1)
		h := k + rng.Intn(8)
		w := k + rng.Intn(8)
		c := 1 + rng.Intn(3)
		fo := 1 + rng.Intn(3)
		x := tensor.New(1, c, h, w)
		wt := tensor.New(fo, c, k, k)
		x.FillRandN(seed, 1)
		wt.FillRandN(seed+1, 0.5)
		oh := (h+2*pad-k)/s + 1
		ow := (w+2*pad-k)/s + 1
		if oh <= 0 || ow <= 0 {
			return true
		}
		y := tensor.New(1, fo, oh, ow)
		ConvForward(x, wt, nil, y, s, pad, ConvDirect)
		dy := tensor.New(1, fo, oh, ow)
		dy.FillRandN(seed+2, 1)
		dx := tensor.New(1, c, h, w)
		ConvBackwardData(dy, wt, dx, s, pad)
		// <y, dy> vs <x, dx>
		var lhs, rhs float64
		for i, v := range y.Data() {
			lhs += float64(v) * float64(dy.Data()[i])
		}
		for i, v := range x.Data() {
			rhs += float64(v) * float64(dx.Data()[i])
		}
		scale := 1.0
		if l := lhs; l < 0 {
			scale = -l
		} else {
			scale = l
		}
		if scale < 1 {
			scale = 1
		}
		return abs64(lhs-rhs)/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
