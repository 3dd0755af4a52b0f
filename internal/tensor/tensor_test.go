package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Size() != 120 {
		t.Fatalf("Size = %d, want 120", x.Size())
	}
	if x.Rank() != 4 {
		t.Fatalf("Rank = %d, want 4", x.Rank())
	}
	for i, want := range []int{2, 3, 4, 5} {
		if x.Dim(i) != want {
			t.Errorf("Dim(%d) = %d, want %d", i, x.Dim(i), want)
		}
	}
	wantStride := []int{60, 20, 5, 1}
	for i, s := range x.Strides() {
		if s != wantStride[i] {
			t.Errorf("stride[%d] = %d, want %d", i, s, wantStride[i])
		}
	}
}

func TestNewZeroInitialized(t *testing.T) {
	x := New(3, 3)
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceRoundTrip(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", x.Data())
	}
	x.Set(42, 1, 1)
	if d[4] != 42 {
		t.Fatal("FromSlice should share the backing slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

func TestAtSetMultiIndex(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data()[1*12+2*4+3]; got != 7.5 {
		t.Fatalf("linear layout: got %v, want 7.5", got)
	}
}

func TestAt4MatchesAt(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.FillRandN(1, 1)
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				for d := 0; d < 5; d++ {
					if x.At4(a, b, c, d) != x.At(a, b, c, d) {
						t.Fatalf("At4(%d,%d,%d,%d) != At", a, b, c, d)
					}
				}
			}
		}
	}
	x.Set4(-3, 1, 2, 3, 4)
	if x.At(1, 2, 3, 4) != -3 {
		t.Fatal("Set4 did not store")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4, 4)
	x.FillRandN(2, 1)
	y := x.Clone()
	if x.MaxAbsDiff(y) != 0 {
		t.Fatal("clone differs from original")
	}
	y.Set(99, 0, 0)
	if x.At(0, 0) == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 2, 3)
	if x.Data()[11] != 5 {
		t.Fatal("Reshape must share data")
	}
}

func TestZeroFillScale(t *testing.T) {
	x := New(3, 3)
	x.Fill(2)
	x.Scale(1.5)
	for _, v := range x.Data() {
		if v != 3 {
			t.Fatalf("got %v, want 3", v)
		}
	}
	x.Zero()
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("got %v after Zero, want 0", v)
		}
	}
}

func TestAddScaled(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.AddScaled(y, 0.5)
	want := []float32{6, 12, 18}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("AddScaled[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestFillRandNDeterministic(t *testing.T) {
	a := New(100)
	b := New(100)
	a.FillRandN(7, 0.1)
	b.FillRandN(7, 0.1)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("same seed must give same values")
	}
	b.FillRandN(8, 0.1)
	if a.MaxAbsDiff(b) == 0 {
		t.Fatal("different seeds should give different values")
	}
}

func TestMaxAbsDiffAndRelDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 4}, 3)
	b := FromSlice([]float32{1, 2.5, 4}, 3)
	if got := a.MaxAbsDiff(b); math.Abs(got-0.5) > 1e-7 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", got)
	}
	if got := a.RelDiff(b); math.Abs(got-0.5/4) > 1e-6 {
		t.Fatalf("RelDiff = %v, want 0.125", got)
	}
}

func TestSumAbs(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3}, 3)
	if got := a.SumAbs(); math.Abs(got-6) > 1e-7 {
		t.Fatalf("SumAbs = %v, want 6", got)
	}
}

func TestEqualShape(t *testing.T) {
	if !New(2, 3).EqualShape(New(2, 3)) {
		t.Fatal("equal shapes reported unequal")
	}
	if New(2, 3).EqualShape(New(3, 2)) {
		t.Fatal("unequal shapes reported equal")
	}
	if New(2, 3).EqualShape(New(2, 3, 1)) {
		t.Fatal("different ranks reported equal")
	}
}

func TestExtractInsertRegionRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.FillRandN(3, 1)
	r := Region{Off: []int{1, 1, 2}, Size: []int{2, 2, 3}}
	buf := x.ExtractRegion(r)
	if len(buf) != 12 {
		t.Fatalf("buffer length = %d, want 12", len(buf))
	}
	// Verify row-major region order.
	k := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 3; c++ {
				if buf[k] != x.At(1+a, 1+b, 2+c) {
					t.Fatalf("buf[%d] mismatch", k)
				}
				k++
			}
		}
	}
	y := New(3, 4, 5)
	y.InsertRegion(r, buf)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 3; c++ {
				if y.At(1+a, 1+b, 2+c) != x.At(1+a, 1+b, 2+c) {
					t.Fatal("insert did not restore extracted values")
				}
			}
		}
	}
	// Elements outside the region stay zero.
	if y.At(0, 0, 0) != 0 {
		t.Fatal("InsertRegion wrote outside the region")
	}
}

func TestExtractRegionPanicsWhenInvalid(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid region did not panic")
		}
	}()
	x.ExtractRegion(Region{Off: []int{1, 1}, Size: []int{2, 1}})
}

func TestCopyRegionBetweenTensors(t *testing.T) {
	src := New(4, 4)
	src.FillRandN(5, 1)
	dst := New(6, 6)
	dst.CopyRegion(
		Region{Off: []int{2, 3}, Size: []int{2, 2}},
		src,
		Region{Off: []int{1, 1}, Size: []int{2, 2}},
	)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(2+i, 3+j) != src.At(1+i, 1+j) {
				t.Fatalf("CopyRegion value mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestRegionNumElems(t *testing.T) {
	r := Region{Off: []int{0, 0}, Size: []int{3, 7}}
	if r.NumElems() != 21 {
		t.Fatalf("NumElems = %d, want 21", r.NumElems())
	}
}

// Property: extracting a random region and inserting it into a zero tensor of
// the same shape reproduces exactly the region and nothing else.
func TestQuickRegionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(4), 1 + rng.Intn(5), 1 + rng.Intn(6)}
		x := New(shape...)
		x.FillRandN(seed, 1)
		off := make([]int, 3)
		size := make([]int, 3)
		for d := 0; d < 3; d++ {
			off[d] = rng.Intn(shape[d])
			size[d] = 1 + rng.Intn(shape[d]-off[d])
		}
		r := Region{Off: off, Size: size}
		y := New(shape...)
		y.InsertRegion(r, x.ExtractRegion(r))
		// Check every element.
		for a := 0; a < shape[0]; a++ {
			for b := 0; b < shape[1]; b++ {
				for c := 0; c < shape[2]; c++ {
					in := a >= off[0] && a < off[0]+size[0] &&
						b >= off[1] && b < off[1]+size[1] &&
						c >= off[2] && c < off[2]+size[2]
					got := y.At(a, b, c)
					if in && got != x.At(a, b, c) {
						return false
					}
					if !in && got != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddScaled is linear: (x + a*y) + b*y == x + (a+b)*y.
func TestQuickAddScaledLinear(t *testing.T) {
	f := func(seed int64) bool {
		x := New(32)
		y := New(32)
		x.FillRandN(seed, 1)
		y.FillRandN(seed+1, 1)
		x1 := x.Clone()
		x1.AddScaled(y, 0.25)
		x1.AddScaled(y, 0.5)
		x2 := x.Clone()
		x2.AddScaled(y, 0.75)
		return x1.MaxAbsDiff(x2) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRegionAccumulates(t *testing.T) {
	x := New(3, 4)
	x.Fill(1)
	r := Region{Off: []int{1, 1}, Size: []int{2, 2}}
	buf := []float32{10, 20, 30, 40}
	x.AddRegion(r, buf)
	x.AddRegion(r, buf) // accumulate twice
	if x.At(1, 1) != 21 || x.At(1, 2) != 41 || x.At(2, 1) != 61 || x.At(2, 2) != 81 {
		t.Fatalf("AddRegion wrong: %v", x.Data())
	}
	if x.At(0, 0) != 1 {
		t.Fatal("AddRegion wrote outside the region")
	}
}

func TestAddRegionPanicsOnMismatch(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRegion with wrong buffer length did not panic")
		}
	}()
	x.AddRegion(Region{Off: []int{0, 0}, Size: []int{2, 2}}, []float32{1})
}

// Property: InsertRegion then AddRegion equals inserting 2x the values.
func TestQuickAddRegionLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 2 + rng.Intn(5)
		w := 2 + rng.Intn(5)
		x := New(h, w)
		off := []int{rng.Intn(h - 1), rng.Intn(w - 1)}
		size := []int{1 + rng.Intn(h-off[0]), 1 + rng.Intn(w-off[1])}
		r := Region{Off: off, Size: size}
		buf := make([]float32, r.NumElems())
		for i := range buf {
			buf[i] = rng.Float32()
		}
		x.InsertRegion(r, buf)
		x.AddRegion(r, buf)
		want := New(h, w)
		twice := make([]float32, len(buf))
		for i := range buf {
			twice[i] = 2 * buf[i]
		}
		want.InsertRegion(r, twice)
		return x.MaxAbsDiff(want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringPreview(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String")
	}
	big := New(100)
	if s := big.String(); len(s) == 0 || len(s) > 200 {
		t.Fatalf("String preview length %d unexpected", len(s))
	}
}

func TestFillRandUniformRange(t *testing.T) {
	x := New(1000)
	x.FillRand(1, -2, 3)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v out of [-2,3)", v)
		}
	}
	y := New(1000)
	y.FillRand(1, -2, 3)
	if x.MaxAbsDiff(y) != 0 {
		t.Fatal("FillRand not deterministic in seed")
	}
}

func TestFillPatternDeterministicAndBounded(t *testing.T) {
	x := New(64)
	y := New(64)
	x.FillPattern(0.5)
	y.FillPattern(0.5)
	if x.MaxAbsDiff(y) != 0 {
		t.Fatal("FillPattern not deterministic")
	}
	for _, v := range x.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("pattern value %v out of [-1,1]", v)
		}
	}
}

func TestOffsetAndRankPanics(t *testing.T) {
	x := New(2, 3)
	if x.Offset(1, 2) != 5 {
		t.Fatalf("Offset = %d, want 5", x.Offset(1, 2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Offset with wrong rank did not panic")
		}
	}()
	x.Offset(1)
}

func TestAddScaledPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaled size mismatch did not panic")
		}
	}()
	New(2).AddScaled(New(3), 1)
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Strides returns the row-major strides. The returned slice must not be
// modified.
func (t *Tensor) Strides() []int { return t.stride }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Offset(idx...)] = v }

// FillRand fills with uniform values in [lo, hi) from a deterministic stream.
func (t *Tensor) FillRand(seed int64, lo, hi float32) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*rng.Float32()
	}
}

// SumAbs returns the sum of absolute values (L1 norm).
func (t *Tensor) SumAbs() float64 {
	s := 0.0
	for _, v := range t.data {
		s += math.Abs(float64(v))
	}
	return s
}
