package kernels

import (
	"fmt"
	"testing"
)

// noSkinnySwap turns the skinny-GEMM operand swap off, so a GEMM with fewer
// columns than one B strip packs its operands as given again, and returns a
// restore function.
func noSkinnySwap() (restore func()) {
	old := skinnySwap
	skinnySwap = false
	return func() { skinnySwap = old }
}

// skinnyGemmFuncs are the public entry points a skinny GEMM can reach the
// swap through, each with the operand layout its caller hands over.
var skinnyGemmFuncs = []struct {
	name string
	run  func(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32)
}{
	{"NN", GemmNN},
	{"NT", GemmNT},
	{"TN", GemmTN},
	{"NNStable", GemmNNStable},
}

// TestGemmSwappedMatchesUnswappedBitwise pins the skinny swap's contract: a
// GEMM with n < NR and m > n computes Cᵀ = op(B)ᵀ·op(A)ᵀ with alpha on the
// caller's A, and its answer is bit-for-bit the answer of packing the
// operands as given. It sweeps every usable geometry and every entry point
// over n = 1..NR-1, m from n+1 to well past one row block, and k on both
// sides of the second K panel's end, with NaN, ±Inf and -0 in A and B.
// Each (alpha, beta) pair from {1, -0.5, 3} x {0, 1, 0.7} rotates through
// the cases, so every pair meets every geometry and entry point.
func TestGemmSwappedMatchesUnswappedBitwise(t *testing.T) {
	var abs [][2]float32
	for _, alpha := range []float32{1, -0.5, 3} {
		for _, beta := range []float32{0, 1, 0.7} {
			abs = append(abs, [2]float32{alpha, beta})
		}
	}
	ks := []int{2*gemmKC - 1, 2*gemmKC + 1}
	for _, g := range platformGeoms() {
		mrFull := g.mr
		for _, f := range skinnyGemmFuncs {
			caseNo := 0
			for n := 1; n < g.nr; n++ {
				for _, m := range []int{n + 1, mrFull, 2*mrFull + 3, 600} {
					if m <= n {
						continue
					}
					k := ks[caseNo%len(ks)]
					ab := abs[caseNo%len(abs)]
					caseNo++
					la, lb := m*k, k*n
					a := withSpecials(randSlice(la, int64(m*k+n)), la/2, la/3, 2*la/3+1)
					b := withSpecials(randSlice(lb, int64(n*k+m)), lb/5, lb/2+1, lb-1)
					c0 := randSlice(m*n, int64(m+n))
					swapped, plain := cloneSlice(c0), cloneSlice(c0)
					restore := setGeomForTest(g)
					f.run(m, n, k, ab[0], a, b, ab[1], swapped)
					restoreSwap := noSkinnySwap()
					f.run(m, n, k, ab[0], a, b, ab[1], plain)
					restoreSwap()
					restore()
					bitsEqual(t, fmt.Sprintf("%s/%s/m=%d/n=%d/k=%d/alpha=%v/beta=%v",
						g.name, f.name, m, n, k, ab[0], ab[1]), swapped, plain)
				}
			}
		}
	}
}

// BenchmarkGemmSkinny times the skinny training GEMMs on one core with the
// operand swap on and off: NN and NT are the per-sample conv forward shape
// (512 filters x n plane positions x 4608 taps), TN the backward-data shape
// (4608 taps x n x 512 filters). The table across n is the evidence for the
// n < NR && m > n rule.
func BenchmarkGemmSkinny(b *testing.B) {
	shapes := []struct {
		name string
		m, k int
		run  func(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32)
	}{
		{"NN", 512, 4608, GemmNN},
		{"NT", 512, 4608, GemmNT},
		{"TN", 4608, 512, GemmTN},
	}
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	for _, sh := range shapes {
		a := randSlice(sh.m*sh.k, 1)
		for _, n := range []int{1, 4, 16, 24, 31} {
			bb := randSlice(sh.k*n, 2)
			c := make([]float32, sh.m*n)
			for _, swap := range []bool{true, false} {
				b.Run(fmt.Sprintf("%s/n=%d/swap=%v", sh.name, n, swap), func(b *testing.B) {
					if !swap {
						defer noSkinnySwap()()
					}
					b.SetBytes(int64(2 * sh.m * n * sh.k)) // flops as "bytes": the MB/s column reads MFLOP/s
					for i := 0; i < b.N; i++ {
						sh.run(sh.m, n, sh.k, 1, a, bb, 0, c)
					}
				})
			}
		}
	}
}
