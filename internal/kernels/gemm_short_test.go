package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// forceFullTile makes g active with its row-short twin disabled, so a GEMM
// with fewer rows than the full tile pads its A panels to the full tile
// again, and returns a restore function.
func forceFullTile(g microGeom) (restore func()) {
	g.short = nil
	return setGeomForTest(g)
}

// withSpecials overwrites every 37th entry of s with -0 and the entries at
// the given indices with NaN, +Inf and -Inf in turn, so the bitwise
// comparisons cover NaN propagation, Inf arithmetic and signed zeros while
// most outputs stay finite and keep their rounding visible.
func withSpecials(s []float32, at ...int) []float32 {
	for i := 0; i < len(s); i += 37 {
		s[i] = float32(math.Copysign(0, -1))
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, j := range at {
		s[j] = specials[i%len(specials)]
	}
	return s
}

// TestGemmShortTileMatchesFullTileBitwise pins the row-short tile's
// contract: a GEMM with fewer rows than the full tile runs the short twin,
// and its answer is bit-for-bit the answer the full tile gives with padded
// rows. Every m from 1 to 17 crosses the switch; k spans two K panels and n
// leaves a partial B strip. It covers the stable GEMM, the prepacked GEMM
// (both A layouts, with and without a fused BN epilogue) and the prepacked
// conv at live batches of 1 to 3, where a sample's output must also not
// change when n*OH*OW crosses the full tile's row count.
func TestGemmShortTileMatchesFullTileBitwise(t *testing.T) {
	const n, k = 45, 300 // partial strip; k > gemmKC
	// B: a NaN in column 40, +Inf and -Inf in column 3 (their sum is NaN).
	b := withSpecials(randSlice(k*n, 2), 270*n+40, 7*n+3, 100*n+3)
	epi := NewBNEpilogue(nil, randSlice(n, 3), randSlice(n, 4), randSlice(n, 5),
		posSlice(n, 6), 1e-5, true)
	for _, g := range platformGeoms() { // go_16x32 everywhere, avx512_16x32 where usable
		if g.short == nil {
			continue
		}
		restore := setGeomForTest(g)
		pb := PackB(k, n, b, false)
		restore()
		for m := 1; m <= 17; m++ {
			a := randSlice(m*k, int64(10+m))
			if m > 1 { // one NaN in A (row m/2); with m = 1 it would poison every output
				withSpecials(a, (m/2)*k+5)
			} else {
				withSpecials(a)
			}
			c0 := randSlice(m*n, int64(40+m))
			run := func(call func(c []float32)) (short, full []float32) {
				short, full = cloneSlice(c0), cloneSlice(c0)
				restore := setGeomForTest(g)
				call(short)
				restore()
				restore = forceFullTile(g)
				call(full)
				restore()
				return short, full
			}
			for _, ab := range [][2]float32{{1, 0}, {1, 1}, {1.5, 2}} {
				alpha, beta := ab[0], ab[1]
				name := fmt.Sprintf("%s/m=%d/alpha=%v/beta=%v", g.name, m, alpha, beta)
				short, full := run(func(c []float32) { GemmNNStable(m, n, k, alpha, a, b, beta, c) })
				bitsEqual(t, name+"/stable", short, full)
				for _, transA := range []bool{false, true} {
					for _, e := range []*Epilogue{nil, epi} {
						short, full := run(func(c []float32) {
							GemmPrepacked(transA, m, n, k, alpha, a, pb, beta, c, e, nil, 0)
						})
						bitsEqual(t, fmt.Sprintf("%s/prepacked/transA=%v/epi=%v", name, transA, e != nil), short, full)
					}
				}
			}
		}
		checkConvShortTile(t, g)
	}
}

// checkConvShortTile runs the prepacked conv under geometry g at live
// batches 1..3 and checks each output against the forced full tile, and
// each sample's output against the same sample in the largest batch.
func checkConvShortTile(t *testing.T, g microGeom) {
	t.Helper()
	cases := []struct{ c, hw, f, k, stride, pad int }{
		{32, 3, 40, 3, 1, 1},  // plane 9: n=1 runs the short tile, n=2 the full one; ckk = 288
		{260, 2, 33, 1, 1, 0}, // plane 4: the 1x1 contiguous im2col path; ckk = 260
	}
	for _, cs := range cases {
		const maxN = 3
		// A NaN in sample 1, channel 2 and +Inf in sample 0, channel 5.
		chw := cs.c * cs.hw * cs.hw
		xAll := withSpecials(randSlice(maxN*chw, int64(cs.c)), chw+2*cs.hw*cs.hw, 5*cs.hw*cs.hw)
		w := tensor.New(cs.f, cs.c, cs.k, cs.k)
		w.FillRandN(int64(cs.f), 0.5)
		restore := setGeomForTest(g)
		wp := PackConvWeights(w)
		restore()
		epi := NewBNEpilogue(nil, randSlice(cs.f, 7), randSlice(cs.f, 8), randSlice(cs.f, 9),
			posSlice(cs.f, 10), 1e-5, true)
		oh := (cs.hw+2*cs.pad-cs.k)/cs.stride + 1
		plane := oh * oh
		outs := make([][]float32, maxN+1)
		for live := 1; live <= maxN; live++ {
			x := tensor.New(live, cs.c, cs.hw, cs.hw)
			copy(x.Data(), xAll)
			conv := func() []float32 {
				y := tensor.New(live, cs.f, oh, oh)
				ConvForwardBatchedPrepacked(x, wp, cs.k, epi, y, cs.stride, cs.pad, nil, 0)
				return y.Data()
			}
			restore := setGeomForTest(g)
			short := conv()
			restore()
			restore = forceFullTile(g)
			full := conv()
			restore()
			name := fmt.Sprintf("%s/conv c=%d k=%d/live=%d (rows=%d)", g.name, cs.c, cs.k, live, live*plane)
			bitsEqual(t, name, short, full)
			outs[live] = short
		}
		for live := 1; live < maxN; live++ {
			bitsEqual(t, fmt.Sprintf("%s/conv c=%d k=%d/live=%d vs live=%d", g.name, cs.c, cs.k, live, maxN),
				outs[maxN][:len(outs[live])], outs[live])
		}
	}
}

// posSlice returns n positive values (batchnorm running variances).
func posSlice(n int, seed int64) []float32 {
	s := randSlice(n, seed)
	for i, v := range s {
		s[i] = 0.5 + v*v
	}
	return s
}
