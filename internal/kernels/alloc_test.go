package kernels

import (
	"testing"

	"repro/internal/tensor"
)

// The zero-allocation regression tests: after one warm-up call (which may
// populate the workspace and job pools), the hot kernels must perform no
// heap allocations per invocation. This is the property that keeps
// steady-state training steps GC-quiet.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	fn() // warm up pools
	if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
		t.Errorf("%s: %v allocs/op after warm-up, want 0", name, allocs)
	}
}

func TestGemmNNZeroAllocs(t *testing.T) {
	m, n, k := 128, 128, 128 // packed path
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	assertZeroAllocs(t, "GemmNN/packed", func() { GemmNN(m, n, k, 1, a, b, 0, c) })
	assertZeroAllocs(t, "GemmNN/small", func() { GemmNN(8, 8, 8, 1, a, b, 0, c) })

	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	assertZeroAllocs(t, "GemmNN/packed-pooled", func() { GemmNN(m, n, k, 1, a, b, 0, c) })
}

// TestGemmSkinnySwapZeroAllocs covers the skinny operand swap: the
// per-sample conv forward (NN, NT: 512 x 4 x 4608) and backward-data (TN:
// 4608 x 4 x 512) shapes, whose transposed tile merge borrows its scratch
// from the workspace like every other edge tile.
func TestGemmSkinnySwapZeroAllocs(t *testing.T) {
	const big, n, small = 4608, 4, 512
	a := make([]float32, big*small)
	b := make([]float32, big*n)
	c := make([]float32, big*n)
	run := func() {
		GemmNN(small, n, big, 1, a, b, 0, c)
		GemmNT(small, n, big, 1, a, b, 0, c)
		GemmTN(big, n, small, 1, a, b[:small*n], 0, c)
	}
	assertZeroAllocs(t, "Gemm/swapped", run)

	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	assertZeroAllocs(t, "Gemm/swapped-pooled", run)
}

func TestConvForwardIm2colZeroAllocs(t *testing.T) {
	x := tensor.New(2, 8, 32, 32)
	x.FillPattern(0.1)
	w := tensor.New(16, 8, 3, 3)
	w.FillPattern(0.2)
	bias := make([]float32, 16)
	y := tensor.New(2, 16, 32, 32)
	assertZeroAllocs(t, "ConvForward/im2col", func() {
		ConvForward(x, w, bias, y, 1, 1, ConvIm2col)
	})
}

func TestBatchNormForwardZeroAllocs(t *testing.T) {
	c := 8
	x := tensor.New(2, c, 32, 32)
	x.FillPattern(0.3)
	y := tensor.New(2, c, 32, 32)
	mean := make([]float32, c)
	invstd := make([]float32, c)
	gamma := make([]float32, c)
	beta := make([]float32, c)
	for i := range invstd {
		invstd[i] = 1
		gamma[i] = 1
	}
	assertZeroAllocs(t, "BatchNormForward", func() {
		BatchNormForward(x, mean, invstd, gamma, beta, y)
	})
	sum := make([]float32, c)
	sumsq := make([]float32, c)
	assertZeroAllocs(t, "BatchNormStats", func() { BatchNormStats(x, sum, sumsq) })
}

func TestElementwiseZeroAllocs(t *testing.T) {
	x := tensor.New(2, 8, 32, 32)
	x.FillPattern(0.4)
	y := tensor.New(2, 8, 32, 32)
	z := tensor.New(2, 8, 32, 32)
	assertZeroAllocs(t, "ReLUForward", func() { ReLUForward(x, y) })
	assertZeroAllocs(t, "ReLUBackward", func() { ReLUBackward(x, y, z) })
	assertZeroAllocs(t, "Add", func() { Add(x, y, z) })
}

func TestPoolZeroAllocs(t *testing.T) {
	x := tensor.New(2, 8, 32, 32)
	x.FillPattern(0.5)
	y := tensor.New(2, 8, 16, 16)
	argmax := make([]int32, y.Size())
	dx := tensor.New(2, 8, 32, 32)
	assertZeroAllocs(t, "MaxPoolForward", func() { MaxPoolForward(x, y, 2, 2, 0, argmax) })
	assertZeroAllocs(t, "MaxPoolBackward", func() { MaxPoolBackward(y, argmax, dx) })
	g := tensor.New(2, 8, 1, 1)
	assertZeroAllocs(t, "GlobalAvgPoolForward", func() { GlobalAvgPoolForward(x, g) })
}

func TestLossZeroAllocs(t *testing.T) {
	logits := tensor.New(16, 10)
	logits.FillPattern(0.6)
	dlogits := tensor.New(16, 10)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 10
	}
	assertZeroAllocs(t, "SoftmaxCrossEntropy", func() {
		SoftmaxCrossEntropy(logits, labels, dlogits)
	})

	sp := tensor.New(2, 3, 8, 8)
	sp.FillPattern(0.7)
	dsp := tensor.New(2, 3, 8, 8)
	labels32 := make([]int32, 2*8*8)
	for i := range labels32 {
		labels32[i] = int32(i % 3)
	}
	assertZeroAllocs(t, "SoftmaxCrossEntropySpatial", func() {
		SoftmaxCrossEntropySpatial(sp, labels32, dsp)
	})
}

func TestWorkspaceReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; pooled-pointer identity does not hold")
	}
	var ws Workspace
	p := ws.Get(1000)
	if len(*p) != 1000 || cap(*p) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(*p), cap(*p))
	}
	ws.Put(p)
	q := ws.Get(700) // same size class: must reuse the pooled buffer
	if q != p {
		t.Error("workspace did not reuse the pooled buffer within a size class")
	}
	if len(*q) != 700 {
		t.Errorf("reused buffer has len %d, want 700", len(*q))
	}
	ws.Put(q)

	z := ws.GetZeroed(512)
	for i, v := range *z {
		if v != 0 {
			t.Fatalf("GetZeroed left nonzero at %d: %v", i, v)
		}
	}
	ws.Put(z)

	if got := ws.Get(0); len(*got) != 0 {
		t.Errorf("Get(0) returned len %d", len(*got))
	}
}

func TestConvBackwardZeroAllocs(t *testing.T) {
	w := tensor.New(16, 8, 3, 3)
	w.FillPattern(0.2)
	// A 3x3/s1/p1 halo region: dx is rows [8,16) and columns [0,8) of a
	// 16x16 input; dy is the outputs those rows need, rows [7,17) and
	// columns [-1,9), padding included.
	dyExt := tensor.New(2, 16, 10, 10)
	dyExt.FillPattern(0.1)
	dx := tensor.New(2, 8, 8, 8)
	assertZeroAllocs(t, "ConvBackwardDataRegion/halo", func() {
		ConvBackwardDataRegion(dyExt, w, dx, 1, 1, 8, 0, 7, -1)
	})
	w1 := tensor.New(16, 8, 1, 1)
	w1.FillPattern(0.3)
	dy := tensor.New(2, 16, 8, 8)
	dy.FillPattern(0.4)
	assertZeroAllocs(t, "ConvBackwardData/1x1", func() { ConvBackwardData(dy, w1, dx, 1, 0) })

	x := tensor.New(2, 8, 10, 10)
	x.FillPattern(0.5)
	dw := tensor.New(16, 8, 3, 3)
	x1 := tensor.New(2, 8, 8, 8)
	x1.FillPattern(0.6)
	dw1 := tensor.New(16, 8, 1, 1)
	for _, accumulate := range []bool{false, true} {
		assertZeroAllocs(t, "ConvBackwardFilter/im2col", func() {
			ConvBackwardFilter(x, dy, dw, 1, 0, accumulate)
		})
		assertZeroAllocs(t, "ConvBackwardFilter/1x1", func() {
			ConvBackwardFilter(x1, dy, dw1, 1, 0, accumulate)
		})
	}
	db := make([]float32, 16)
	assertZeroAllocs(t, "BiasBackward", func() { BiasBackward(dy, db, false) })
}
