package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMaxPoolForwardBasic(t *testing.T) {
	// 4x4 input, 2x2 window stride 2: maxima of each quadrant.
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := tensor.New(1, 1, 2, 2)
	am := make([]int32, 4)
	MaxPoolForward(x, y, 2, 2, 0, am)
	want := []float32{6, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Backward routes gradients to the argmax positions.
	dy := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := tensor.New(1, 1, 4, 4)
	MaxPoolBackward(dy, am, dx)
	if dx.At4(0, 0, 1, 1) != 1 || dx.At4(0, 0, 1, 3) != 2 || dx.At4(0, 0, 3, 1) != 3 || dx.At4(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward scatter wrong: %v", dx.Data())
	}
	if dx.At4(0, 0, 0, 0) != 0 {
		t.Fatal("non-argmax position must stay zero")
	}
}

func TestMaxPoolPaddingExcluded(t *testing.T) {
	// With negative inputs and padding, the max must come from real data,
	// not the zero padding (padding is excluded, not treated as 0).
	x := tensor.FromSlice([]float32{-5, -6, -7, -8}, 1, 1, 2, 2)
	y := tensor.New(1, 1, 2, 2)
	MaxPoolForward(x, y, 3, 1, 1, nil) // 3x3 window, pad 1
	if y.At4(0, 0, 0, 0) != -5 {
		t.Fatalf("padded maxpool = %v, want -5 (padding must not win)", y.At4(0, 0, 0, 0))
	}
}

func TestMaxPoolOverlappingWindowsBackward(t *testing.T) {
	// K=3 S=1: one input element can be the max of several windows; its
	// gradient must accumulate.
	x := tensor.New(1, 1, 3, 3)
	x.Set4(10, 0, 0, 1, 1) // center dominates all windows
	y := tensor.New(1, 1, 3, 3)
	am := make([]int32, 9)
	MaxPoolForward(x, y, 3, 1, 1, am)
	dy := tensor.New(1, 1, 3, 3)
	dy.Fill(1)
	dx := tensor.New(1, 1, 3, 3)
	MaxPoolBackward(dy, am, dx)
	if dx.At4(0, 0, 1, 1) != 9 {
		t.Fatalf("center grad = %v, want 9", dx.At4(0, 0, 1, 1))
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	x.Fill(2)
	y := tensor.New(2, 3, 1, 1)
	GlobalAvgPoolForward(x, y)
	for _, v := range y.Data() {
		if math.Abs(float64(v-2)) > 1e-6 {
			t.Fatalf("global avg = %v, want 2", v)
		}
	}

	// Non-square planes average the whole plane, whichever side is longer.
	for _, hw := range [][2]int{{2, 3}, {3, 2}, {1, 6}, {6, 1}} {
		x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, hw[0], hw[1])
		y := tensor.New(1, 1, 1, 1)
		GlobalAvgPoolForward(x, y)
		if got := y.Data()[0]; got != 3.5 {
			t.Errorf("%dx%d plane of 1..6: global avg = %v, want 3.5", hw[0], hw[1], got)
		}
	}
	for _, hw := range [][2]int{{5, 9}, {9, 5}} {
		x := tensor.New(2, 3, hw[0], hw[1])
		x.FillRandN(7, 1)
		y := tensor.New(2, 3, 1, 1)
		GlobalAvgPoolForward(x, y)
		plane := hw[0] * hw[1]
		for p, got := range y.Data() {
			var sum float64
			for _, v := range x.Data()[p*plane : (p+1)*plane] {
				sum += float64(v)
			}
			if want := sum / float64(plane); math.Abs(float64(got)-want) > 1e-5 {
				t.Errorf("%dx%d plane %d: global avg = %v, want %v", hw[0], hw[1], p, got, want)
			}
		}
	}

	// Square planes: bitwise a row-major float32 sum divided once by H*W.
	for h := 1; h <= 56; h++ {
		x := tensor.New(2, 3, h, h)
		x.FillRandN(int64(h), 1)
		y := tensor.New(2, 3, 1, 1)
		GlobalAvgPoolForward(x, y)
		plane := h * h
		for p, got := range y.Data() {
			var sum float32
			for _, v := range x.Data()[p*plane : (p+1)*plane] {
				sum += v
			}
			if want := sum / float32(plane); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%dx%d plane %d: global avg = %v, want %v bitwise", h, h, p, got, want)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a [N,C,2,1] output did not panic")
		}
	}()
	GlobalAvgPoolForward(tensor.New(2, 3, 4, 4), tensor.New(2, 3, 2, 1))
}

func TestBatchNormForwardNormalizes(t *testing.T) {
	x := tensor.New(4, 3, 5, 5)
	x.FillRandN(1, 3)
	c := 3
	sum := make([]float32, c)
	sumsq := make([]float32, c)
	BatchNormStats(x, sum, sumsq)
	count := 4 * 5 * 5
	mean := make([]float32, c)
	invstd := make([]float32, c)
	BatchNormMoments(sum, sumsq, count, 1e-5, mean, invstd)
	gamma := []float32{1, 1, 1}
	beta := []float32{0, 0, 0}
	y := tensor.New(4, 3, 5, 5)
	BatchNormForward(x, mean, invstd, gamma, beta, y)
	// Output must have ~zero mean and ~unit variance per channel.
	ySum := make([]float32, c)
	ySq := make([]float32, c)
	BatchNormStats(y, ySum, ySq)
	for ci := 0; ci < c; ci++ {
		m := float64(ySum[ci]) / float64(count)
		v := float64(ySq[ci])/float64(count) - m*m
		if math.Abs(m) > 1e-4 {
			t.Errorf("channel %d: mean %g, want ~0", ci, m)
		}
		if math.Abs(v-1) > 1e-2 {
			t.Errorf("channel %d: var %g, want ~1", ci, v)
		}
	}
}

func TestBatchNormAffine(t *testing.T) {
	x := tensor.New(2, 1, 2, 2)
	x.FillRandN(2, 1)
	sum := make([]float32, 1)
	sumsq := make([]float32, 1)
	BatchNormStats(x, sum, sumsq)
	mean := make([]float32, 1)
	invstd := make([]float32, 1)
	BatchNormMoments(sum, sumsq, 8, 1e-5, mean, invstd)
	y := tensor.New(2, 1, 2, 2)
	BatchNormForward(x, mean, invstd, []float32{2}, []float32{5}, y)
	// With gamma=2, beta=5: mean of y must be 5.
	var m float64
	for _, v := range y.Data() {
		m += float64(v)
	}
	m /= 8
	if math.Abs(m-5) > 1e-4 {
		t.Fatalf("affine mean = %v, want 5", m)
	}
}

// Finite-difference check of the batchnorm backward pass.
func TestBatchNormBackwardFiniteDifference(t *testing.T) {
	n, c, h, w := 2, 2, 3, 3
	count := n * h * w
	x := tensor.New(n, c, h, w)
	x.FillRandN(3, 1)
	gamma := []float32{1.5, 0.7}
	beta := []float32{0.1, -0.2}
	dy := tensor.New(n, c, h, w)
	dy.FillRandN(4, 1)

	forward := func(xt *tensor.Tensor) *tensor.Tensor {
		sum := make([]float32, c)
		sumsq := make([]float32, c)
		BatchNormStats(xt, sum, sumsq)
		mean := make([]float32, c)
		invstd := make([]float32, c)
		BatchNormMoments(sum, sumsq, count, 1e-5, mean, invstd)
		y := tensor.New(n, c, h, w)
		BatchNormForward(xt, mean, invstd, gamma, beta, y)
		return y
	}

	// Analytic gradient.
	sum := make([]float32, c)
	sumsq := make([]float32, c)
	BatchNormStats(x, sum, sumsq)
	mean := make([]float32, c)
	invstd := make([]float32, c)
	BatchNormMoments(sum, sumsq, count, 1e-5, mean, invstd)
	dgamma := make([]float32, c)
	dbeta := make([]float32, c)
	BatchNormBackwardStats(x, dy, mean, invstd, dgamma, dbeta)
	dx := tensor.New(n, c, h, w)
	BatchNormBackwardData(x, dy, mean, invstd, gamma, dgamma, dbeta, count, dx)

	// Numerical gradient of L = <forward(x), dy> at a few positions.
	loss := func(xt *tensor.Tensor) float64 {
		y := forward(xt)
		var l float64
		for i, v := range y.Data() {
			l += float64(v) * float64(dy.Data()[i])
		}
		return l
	}
	eps := float32(1e-2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(x.Size())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss(x)
		x.Data()[i] = orig - eps
		lm := loss(x)
		x.Data()[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		ana := float64(dx.Data()[i])
		if math.Abs(num-ana) > 5e-2*(math.Abs(num)+math.Abs(ana)+1e-2) {
			t.Errorf("dx[%d]: numerical %g vs analytic %g", i, num, ana)
		}
	}
}

func TestBatchNormInference(t *testing.T) {
	x := tensor.New(1, 1, 2, 2)
	x.Fill(3)
	y := tensor.New(1, 1, 2, 2)
	BatchNormInference(x, []float32{1}, []float32{4}, []float32{2}, []float32{1}, 0, y)
	// (3-1)/2 * 2 + 1 = 3
	for _, v := range y.Data() {
		if math.Abs(float64(v-3)) > 1e-5 {
			t.Fatalf("inference = %v, want 3", v)
		}
	}
}

func TestReLU(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 4)
	y := tensor.New(4)
	ReLUForward(x, y)
	want := []float32{0, 0, 2, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
	dy := tensor.FromSlice([]float32{5, 6, 7, 8}, 4)
	dx := tensor.New(4)
	ReLUBackward(x, dy, dx)
	wantDx := []float32{0, 0, 7, 0}
	for i, v := range dx.Data() {
		if v != wantDx[i] {
			t.Fatalf("relu bwd[%d] = %v, want %v", i, v, wantDx[i])
		}
	}
}

func TestAdd(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	out := tensor.New(2)
	Add(a, b, out)
	if out.Data()[0] != 11 || out.Data()[1] != 22 {
		t.Fatalf("add = %v", out.Data())
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	labels := []int{1, 3}
	dl := tensor.New(2, 4)
	loss := SoftmaxCrossEntropy(logits, labels, dl)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient: (0.25 - onehot)/N.
	if math.Abs(float64(dl.At(0, 1))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("dlogits(0,1) = %v", dl.At(0, 1))
	}
	if math.Abs(float64(dl.At(0, 0))-0.25/2) > 1e-6 {
		t.Fatalf("dlogits(0,0) = %v", dl.At(0, 0))
	}
}

func TestSoftmaxCrossEntropyGradientFD(t *testing.T) {
	logits := tensor.New(3, 5)
	logits.FillRandN(9, 1)
	labels := []int{0, 2, 4}
	dl := tensor.New(3, 5)
	SoftmaxCrossEntropy(logits, labels, dl)
	eps := float32(1e-3)
	for _, i := range []int{0, 4, 7, 12, 14} {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp := SoftmaxCrossEntropy(logits, labels, nil)
		logits.Data()[i] = orig - eps
		lm := SoftmaxCrossEntropy(logits, labels, nil)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(dl.Data()[i])) > 1e-3 {
			t.Errorf("dlogits[%d]: numerical %g vs analytic %g", i, num, dl.Data()[i])
		}
	}
}

func TestSoftmaxCrossEntropySpatial(t *testing.T) {
	// Uniform logits over 2 classes: loss = ln 2 everywhere.
	logits := tensor.New(1, 2, 2, 2)
	labels := []int32{0, 1, 0, 1}
	dl := tensor.New(1, 2, 2, 2)
	loss := SoftmaxCrossEntropySpatial(logits, labels, dl)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("spatial loss = %v, want ln2", loss)
	}
	// FD check.
	logits.FillRandN(10, 1)
	SoftmaxCrossEntropySpatial(logits, labels, dl)
	eps := float32(1e-3)
	for _, i := range []int{0, 3, 5, 7} {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp := SoftmaxCrossEntropySpatial(logits, labels, nil)
		logits.Data()[i] = orig - eps
		lm := SoftmaxCrossEntropySpatial(logits, labels, nil)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * float64(eps))
		if math.Abs(num-float64(dl.Data()[i])) > 1e-3 {
			t.Errorf("spatial dlogits[%d]: numerical %g vs analytic %g", i, num, dl.Data()[i])
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 2, 1, 5, 4, 3}, 2, 3)
	got := ArgmaxRows(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("argmax = %v, want [1 0]", got)
	}
}

func TestPixelArgmax(t *testing.T) {
	// 2 classes, 1x2 image: class 1 wins pixel 0, class 0 wins pixel 1.
	logits := tensor.FromSlice([]float32{
		0, 5, // class 0 plane
		3, 1, // class 1 plane
	}, 1, 2, 1, 2)
	got := PixelArgmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("pixel argmax = %v, want [1 0]", got)
	}
}

// Property: maxpool forward region decomposition equals full pooling.
func TestQuickMaxPoolRegionEqualsFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 6 + rng.Intn(6)
		w := 6 + rng.Intn(6)
		k := 2 + rng.Intn(2)
		s := 1 + rng.Intn(2)
		x := tensor.New(1, 2, h, w)
		x.FillRandN(seed, 1)
		oh := (h-k)/s + 1
		ow := (w-k)/s + 1
		if oh < 2 || ow < 1 {
			return true
		}
		full := tensor.New(1, 2, oh, ow)
		MaxPoolForward(x, full, k, s, 0, nil)
		// Split output rows in two; feed each the input rows it needs.
		split := oh / 2
		for _, pc := range []struct{ lo, hi int }{{0, split}, {split, oh}} {
			inLo := pc.lo * s
			inHi := (pc.hi-1)*s + k
			xPart := tensor.New(1, 2, inHi-inLo, w)
			xPart.InsertRegion(
				tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{1, 2, inHi - inLo, w}},
				x.ExtractRegion(tensor.Region{Off: []int{0, 0, inLo, 0}, Size: []int{1, 2, inHi - inLo, w}}))
			yPart := tensor.New(1, 2, pc.hi-pc.lo, ow)
			MaxPoolForwardRegion(xPart, yPart, k, s, 0, inLo, 0, pc.lo, 0, h, w, nil)
			for ci := 0; ci < 2; ci++ {
				for oy := pc.lo; oy < pc.hi; oy++ {
					for ox := 0; ox < ow; ox++ {
						if yPart.At4(0, ci, oy-pc.lo, ox) != full.At4(0, ci, oy, ox) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
