// Package tensor provides dense float32 tensors in row-major (NCHW) layout,
// plus the region-copy primitives needed for halo extraction and insertion in
// distributed convolution. It is the storage substrate shared by the
// sequential kernels (internal/kernels) and the distributed tensor library
// (internal/core).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array of arbitrary rank.
// The zero value is not usable; construct with New or FromSlice.
type Tensor struct {
	shape  []int
	stride []int
	data   []float32
}

// New allocates a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.stride = computeStrides(t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	t.stride = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	stride := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		stride[i] = s
		s *= shape[i]
	}
	return stride
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Offset returns the linear offset of the given multi-index.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Offset(idx...)] }

// At4 is a bounds-unchecked fast path for rank-4 tensors.
func (t *Tensor) At4(a, b, c, d int) float32 {
	return t.data[a*t.stride[0]+b*t.stride[1]+c*t.stride[2]+d]
}

// Set4 is a bounds-unchecked fast path for rank-4 tensors.
func (t *Tensor) Set4(v float32, a, b, c, d int) {
	t.data[a*t.stride[0]+b*t.stride[1]+c*t.stride[2]+d] = v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a new view-like tensor sharing t's data with a different
// shape of the same element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return FromSlice(t.data, shape...)
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// FillRandN fills with pseudo-normal values (mean 0, stddev sigma) from a
// deterministic stream seeded by seed.
func (t *Tensor) FillRandN(seed int64, sigma float32) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * sigma
	}
}

// FillPattern fills element i with a smooth deterministic function of i,
// useful for exactness tests where values must be reproducible without RNG
// state.
func (t *Tensor) FillPattern(phase float64) {
	for i := range t.data {
		t.data[i] = float32(math.Sin(phase + 0.7*float64(i%251) + 0.13*float64(i%17)))
	}
}

// AddScaled computes t += alpha * o elementwise. Shapes must match.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) {
	if len(t.data) != len(o.data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// MaxAbsDiff returns max_i |t_i - o_i|. Shapes must have equal element count.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	m := 0.0
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// RelDiff returns max_i |t_i-o_i| / (max_i |o_i| + eps), a scale-aware error
// measure for comparing accumulations of different association orders.
func (t *Tensor) RelDiff(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic("tensor: RelDiff size mismatch")
	}
	num, den := 0.0, 0.0
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > num {
			num = d
		}
		a := math.Abs(float64(o.data[i]))
		if a > den {
			den = a
		}
	}
	return num / (den + 1e-12)
}

// EqualShape reports whether t and o have identical shapes.
func (t *Tensor) EqualShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String returns a compact description (shape and a few leading values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 6 {
		n = 6
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 6 {
		b.WriteString(", ...")
	}
	b.WriteString("]")
	return b.String()
}
