package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

func cloneSlice(s []float32) []float32 {
	c := make([]float32, len(s))
	copy(c, s)
	return c
}

// bitsEqual compares two float32 slices for exact bit equality (so NaN
// payloads and signed zeros count too) and reports the first mismatch.
func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				name, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestGemmPrepackedBitwiseMatchesStable pins the tentpole contract: a GEMM
// fed a PackedB produces bit-for-bit the result of GemmNNStable packing the
// same operand on the fly — the packed bytes are identical, so the kernel
// sweeps identical panels. Shapes deliberately straddle the pack geometry:
// K at the KC=256 panel boundary (255/256/257), N at NR strip and NC=1024
// panel boundaries, plus edge tiles in both dimensions.
func TestGemmPrepackedBitwiseMatchesStable(t *testing.T) {
	dims := [][3]int{
		{3, 16, 255},
		{7, 17, 256},
		{16, 32, 257},
		{33, 31, 64},
		{64, 1024, 300},
		{5, 1025, 512},
		{1, 1, 1},
		{12, 1023, 129},
	}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		a := randSlice(m*k, int64(m+2*n+3*k))
		b := randSlice(k*n, int64(m+5*n+7*k))
		c0 := randSlice(m*n, int64(m+11*n+13*k))
		pb := PackB(k, n, b, false)
		for _, ab := range [][2]float32{{1, 0}, {1, 1}, {1.5, 2}} {
			alpha, beta := ab[0], ab[1]
			want := cloneSlice(c0)
			GemmNNStable(m, n, k, alpha, a, b, beta, want)
			got := cloneSlice(c0)
			GemmNNPrepacked(m, n, k, alpha, a, pb, beta, got)
			bitsEqual(t, "prepacked", got, want)
		}
	}
}

// TestGemmTNPrepackedBitwiseMatchesStable checks the transposed-A entry (the
// serving conv formulation, where A is the im2col column matrix read
// column-wise): packing op(A)=aᵀ from a K x M operand reads the same values
// into the same panel slots as packing the explicit transpose, so the result
// is bitwise GemmNNStable of the transpose.
func TestGemmTNPrepackedBitwiseMatchesStable(t *testing.T) {
	dims := [][3]int{{9, 33, 257}, {48, 17, 255}, {16, 64, 300}}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		a := randSlice(k*m, int64(3*m+n+k)) // K x M, op(A) = aᵀ
		b := randSlice(k*n, int64(m+n+9*k))
		at := make([]float32, m*k) // explicit M x K transpose
		for p := 0; p < k; p++ {
			for i := 0; i < m; i++ {
				at[i*k+p] = a[p*m+i]
			}
		}
		pb := PackB(k, n, b, false)
		want := make([]float32, m*n)
		GemmNNStable(m, n, k, 1, at, b, 0, want)
		got := make([]float32, m*n)
		GemmTNPrepacked(m, n, k, 1, a, pb, 0, got)
		bitsEqual(t, "tn-prepacked", got, want)
	}
}

// TestPackBTransposed checks the transB form: packing a row-major N x K
// operand as op(B)=bᵀ lands every element in the same slot as packing the
// explicit K x N transpose — the form conv weights [F, CKK] are packed in.
func TestPackBTransposed(t *testing.T) {
	k, n := 257, 33
	bt := randSlice(n*k, 42) // N x K
	b := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			b[p*n+j] = bt[j*k+p]
		}
	}
	p1, p2 := PackB(k, n, b, false), PackB(k, n, bt, true)
	bitsEqual(t, "packb-trans", p2.data, p1.data)
}

// TestConvPrepackedBitwiseMatchesBatched pins the serving conv contract:
// ConvForwardBatchedPrepacked (transposed formulation, weights prepacked,
// bias folded into the GEMM store epilogue) is bit-for-bit
// ConvForwardBatched. Float multiplication commutes bitwise and the
// per-element K order is unchanged, so transposing the GEMM cannot move a
// single ULP. Shapes cover CKK below and above the KC panel depth and F
// across strip boundaries.
func TestConvPrepackedBitwiseMatchesBatched(t *testing.T) {
	cases := []struct{ n, c, h, w, f, k, stride, pad int }{
		{3, 5, 9, 9, 17, 3, 1, 1},
		{2, 32, 8, 8, 33, 3, 1, 1}, // ckk = 288: two K panels
		{4, 7, 11, 11, 16, 1, 2, 0},
		{1, 3, 16, 16, 40, 5, 2, 2},
	}
	for _, cs := range cases {
		x := tensor.New(cs.n, cs.c, cs.h, cs.w)
		x.FillRandN(1, 1)
		w := tensor.New(cs.f, cs.c, cs.k, cs.k)
		w.FillRandN(2, 1)
		bias := randSlice(cs.f, 3)
		oh := (cs.h+2*cs.pad-cs.k)/cs.stride + 1
		ow := (cs.w+2*cs.pad-cs.k)/cs.stride + 1
		want := tensor.New(cs.n, cs.f, oh, ow)
		ConvForwardBatched(x, w, bias, want, cs.stride, cs.pad)
		got := tensor.New(cs.n, cs.f, oh, ow)
		wp := PackConvWeights(w)
		ConvForwardBatchedPrepacked(x, wp, cs.k, &Epilogue{Bias: bias}, got, cs.stride, cs.pad, nil, 0)
		bitsEqual(t, "conv-prepacked", got.Data(), want.Data())

		// And with no bias / nil epilogue.
		ConvForwardBatched(x, w, nil, want, cs.stride, cs.pad)
		ConvForwardBatchedPrepacked(x, wp, cs.k, nil, got, cs.stride, cs.pad, nil, 0)
		bitsEqual(t, "conv-prepacked-nobias", got.Data(), want.Data())
	}
}

// TestConvFusedEpilogueBitwise pins the fused-epilogue contract: a prepacked
// conv with a BN(+ReLU) epilogue is bit-for-bit conv + BatchNormInference +
// ReLUForward run as three separate full passes. The epilogue reproduces the
// standalone kernels' exact per-element arithmetic (same invstd formula,
// same scale/shift expression, same v > 0 keep), only the memory traffic
// changes.
func TestConvFusedEpilogueBitwise(t *testing.T) {
	n, c, h, wd, f, k := 3, 6, 10, 10, 33, 3
	stride, pad := 1, 1
	x := tensor.New(n, c, h, wd)
	x.FillRandN(7, 1)
	w := tensor.New(f, c, k, k)
	w.FillRandN(8, 0.5)
	gamma := randSlice(f, 9)
	beta := randSlice(f, 10)
	runMean := randSlice(f, 11)
	runVar := make([]float32, f)
	for i, v := range randSlice(f, 12) {
		runVar[i] = 0.5 + v*v // positive
	}
	const eps = 1e-5

	for _, relu := range []bool{false, true} {
		want := tensor.New(n, f, h, wd)
		ConvForwardBatched(x, w, nil, want, stride, pad)
		BatchNormInference(want, runMean, runVar, gamma, beta, eps, want)
		if relu {
			ReLUForward(want, want)
		}

		got := tensor.New(n, f, h, wd)
		wp := PackConvWeights(w)
		epi := NewBNEpilogue(nil, gamma, beta, runMean, runVar, eps, relu)
		ConvForwardBatchedPrepacked(x, wp, k, epi, got, stride, pad, nil, 0)
		bitsEqual(t, "fused-bn-relu", got.Data(), want.Data())
	}
}

// TestGemmGeometriesAgree runs every usable microkernel geometry — the
// portable 6x16 and 16x32 tiles plus whatever assembly kernels this CPU
// admits — over integer-valued data, where every accumulation order is
// exact, and demands bitwise agreement with the retained reference. This is
// the forced-fallback test: with the AVX-512 (and AVX2) kernels disabled,
// the portable paths must produce the same answers the assembly paths do.
// The row counts below 16 run the 16x32 geometries' row-short 4x32 twin
// (go_4x32 on every runner), full and edge tiles both.
func TestGemmGeometriesAgree(t *testing.T) {
	n, k := 65, 300
	b := intSlice(k*n, 2)
	for _, m := range []int{37, 1, 4, 5, 15} {
		a := intSlice(m*k, 1)
		want := make([]float32, m*n)
		gemmRef(m, n, k, 1, a, b, 0, want)
		for _, g := range platformGeoms() {
			name := fmt.Sprintf("%s/m=%d", g.name, m)
			restore := setGeomForTest(g)
			pb := PackB(k, n, b, false)
			got := make([]float32, m*n)
			GemmNNStable(m, n, k, 1, a, b, 0, got)
			bitsEqual(t, name+"/stable", got, want)
			clear(got)
			GemmNNPrepacked(m, n, k, 1, a, pb, 0, got)
			restore()
			bitsEqual(t, name+"/prepacked", got, want)
		}
	}
}

// TestGemmPrepackedGeometryMismatchPanics checks the safety rail: a PackedB
// built under one geometry must not be silently consumed under another.
func TestGemmPrepackedGeometryMismatchPanics(t *testing.T) {
	b := randSlice(32*48, 5)
	restore := setGeomForTest(geomGo6x16)
	pb := PackB(32, 48, b, false)
	restore()
	restore = setGeomForTest(geomGo16x32)
	defer restore()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic consuming a PackedB under a mismatched geometry")
		}
	}()
	a := randSlice(4*32, 6)
	c := make([]float32, 4*48)
	GemmNNPrepacked(4, 48, 32, 1, a, pb, 0, c)
}

// TestGemmPrepackedParallelWorkers checks that the intra-GEMM parallel
// dispatch (the problem here is far above gemmParCutover) cannot change the
// produced bits: chunk boundaries move which goroutine computes a tile,
// never the per-element accumulation order.
func TestGemmPrepackedParallelWorkers(t *testing.T) {
	m, n, k := 128, 512, 300
	a := randSlice(m*k, 21)
	b := randSlice(k*n, 22)
	pb := PackB(k, n, b, false)

	old := SetMaxWorkers(1)
	serial := make([]float32, m*n)
	GemmNNPrepacked(m, n, k, 1, a, pb, 0, serial)
	SetMaxWorkers(5)
	pooled := make([]float32, m*n)
	GemmNNPrepacked(m, n, k, 1, a, pb, 0, pooled)
	SetMaxWorkers(old)
	bitsEqual(t, "prepacked-workers", pooled, serial)
}

// TestParallelContendedBitwise checks that core sharing cannot change the
// produced bits: a prepacked conv forward and a GemmNN split across every
// core alone give the same answer run inline while another dispatch holds
// every core.
func TestParallelContendedBitwise(t *testing.T) {
	const k = 4
	old := SetMaxWorkers(k)
	defer SetMaxWorkers(old)

	x := tensor.New(4, 16, 12, 12)
	x.FillRandN(31, 1)
	w := tensor.New(24, 16, 3, 3)
	w.FillRandN(32, 0.5)
	wp := PackConvWeights(w)
	epi := &Epilogue{Bias: randSlice(24, 33)}
	m, n, kk := 128, 512, 300
	a := randSlice(m*kk, 34)
	b := randSlice(kk*n, 35)

	run := func() (conv, gemm []float32) {
		y := tensor.New(4, 24, 12, 12)
		ConvForwardBatchedPrepacked(x, wp, 3, epi, y, 1, 1, nil, 0)
		c := make([]float32, m*n)
		GemmNN(m, n, kk, 1, a, b, 0, c)
		return y.Data(), c
	}
	aloneConv, aloneGemm := run()
	release := holdAllCores(t, k)
	heldConv, heldGemm := run()
	release()
	bitsEqual(t, "conv-contended", heldConv, aloneConv)
	bitsEqual(t, "gemm-contended", heldGemm, aloneGemm)
}

// TestGemmPrepackedZeroAllocs: the warm prepacked serving path — GEMM and
// full conv with a fused epilogue — performs no heap allocations.
func TestGemmPrepackedZeroAllocs(t *testing.T) {
	m, n, k := 128, 128, 128
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	pb := PackB(k, n, b, false)
	assertZeroAllocs(t, "GemmNNPrepacked", func() { GemmNNPrepacked(m, n, k, 1, a, pb, 0, c) })
	// Two rows: the row-short tile of a sharded serving layer's live batch.
	assertZeroAllocs(t, "GemmNNPrepacked/short", func() { GemmNNPrepacked(2, n, k, 1, a, pb, 0, c) })

	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	assertZeroAllocs(t, "GemmNNPrepacked/pooled", func() { GemmNNPrepacked(m, n, k, 1, a, pb, 0, c) })
}

func TestConvPrepackedZeroAllocs(t *testing.T) {
	x := tensor.New(4, 8, 12, 12)
	w := tensor.New(16, 8, 3, 3)
	w.FillRandN(1, 1)
	y := tensor.New(4, 16, 12, 12)
	wp := PackConvWeights(w)
	epi := NewBNEpilogue(nil,
		make([]float32, 16), make([]float32, 16), make([]float32, 16),
		[]float32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1e-5, true)
	assertZeroAllocs(t, "ConvForwardBatchedPrepacked/fused", func() {
		ConvForwardBatchedPrepacked(x, wp, 3, epi, y, 1, 1, nil, 0)
	})

	// A 3x3 input, unpadded: one output position per sample, so a live
	// batch of two is a 2-row GEMM on the row-short tile.
	xs := tensor.New(2, 8, 3, 3)
	ys := tensor.New(2, 16, 1, 1)
	assertZeroAllocs(t, "ConvForwardBatchedPrepacked/short", func() {
		ConvForwardBatchedPrepacked(xs, wp, 3, epi, ys, 1, 0, nil, 0)
	})
}

// GemmTNPrepacked computes C = alpha*Aᵀ*op(B) + beta*C with op(B)
// prepacked; a is row-major K x M (op(A) = aᵀ). This is the serving conv
// formulation: a is the im2col column matrix, op(B) the prepacked weights.
func GemmTNPrepacked(m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	GemmPrepacked(true, m, n, k, alpha, a, pb, beta, c, nil, nil, 0)
}

// setGeomForTest forces a microkernel geometry and returns a restore
// function. PackedB values built under a different geometry become
// unusable until repacked, and the swap is not safe concurrent with running
// GEMMs.
func setGeomForTest(g microGeom) (restore func()) {
	old := activeGeom
	activeGeom = g
	return func() { activeGeom = old }
}
