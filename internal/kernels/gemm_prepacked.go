package kernels

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// PackedB holds op(B) in the packed GEMM's panel-blocked layout, built once
// for operands that never change between calls — serving weights. The
// layout is exactly what packBStrips produces on the fly: K blocked in
// KC-deep panels, each panel holding ceil(N/NR) strips of NR interleaved
// columns (zero-padded past column N), panels in ascending K order. A GEMM
// fed a PackedB skips its pack-B phase entirely and slices strips straight
// out of this buffer; because the bytes are identical to the on-the-fly
// pack, the results are bitwise identical too.
//
// A PackedB is immutable after PackB returns and safe for concurrent use by
// any number of GEMMs (serving replicas share one per conv layer). It is
// tied to the microkernel geometry that was active when it was built; the
// consuming GEMM checks and panics on mismatch rather than silently
// computing on a misinterleaved layout.
type PackedB struct {
	k, n   int // dimensions of op(B): K x N
	nr, kc int // pack geometry: strip interleave width, K panel depth
	strips int // ceil(n/nr)
	data   []float32
}

// K returns the op(B) row count the pack was built for.
func (pb *PackedB) K() int { return pb.k }

// N returns the op(B) column count the pack was built for.
func (pb *PackedB) N() int { return pb.n }

// Bytes returns the packed buffer size in bytes (capacity accounting).
func (pb *PackedB) Bytes() int { return 4 * len(pb.data) }

// PackB packs op(B) (K x N) into the panel-blocked layout under the active
// microkernel geometry. With transB false, b is row-major K x N; with
// transB true, b is row-major N x K and op(B) = bᵀ — the form conv weights
// [F, CKK] take when they become the GEMM's B operand. PackB allocates the
// packed buffer (it outlives any single call); pack time is one pass over
// b, paid once at model load.
func PackB(k, n int, b []float32, transB bool) *PackedB {
	if k <= 0 || n <= 0 {
		panic(fmt.Sprintf("kernels: PackB needs positive dims, got %dx%d", k, n))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackB operand has %d elements, need %d", len(b), k*n))
	}
	g := activeGeom
	nr := g.nr
	strips := (n + nr - 1) / nr
	pb := &PackedB{k: k, n: n, nr: nr, kc: gemmKC, strips: strips,
		data: make([]float32, k*strips*nr)}
	for p0 := 0; p0 < k; p0 += gemmKC {
		kc := min(gemmKC, k-p0)
		panel := pb.data[p0*strips*nr:]
		for st := 0; st < strips; st++ {
			dst := panel[st*nr*kc : (st+1)*nr*kc]
			j0 := st * nr
			nj := min(nr, n-j0)
			if !transB {
				for p := 0; p < kc; p++ {
					src := b[(p0+p)*n+j0:]
					o := p * nr
					for q := 0; q < nj; q++ {
						dst[o+q] = src[q]
					}
				}
			} else {
				for q := 0; q < nj; q++ {
					src := b[(j0+q)*k+p0 : (j0+q)*k+p0+kc]
					for p, v := range src {
						dst[p*nr+q] = v
					}
				}
			}
			// Padding columns stay zero from make.
		}
	}
	return pb
}

// Epilogue is a fused store epilogue: per-output-channel ops applied to
// each C tile immediately after its final K panel's store, while the tile
// is cache-resident, replacing one full memory pass over the output per
// fused op. The channel of an element is its C column index — in the
// transposed conv formulation (out[cols, F] = im2colᵀ x Wᵀ) columns are
// conv output channels, which is what makes per-channel bias/BN a column
// operation.
//
// The bitwise contract: each step reproduces the standalone kernel's exact
// arithmetic — bias is `v + Bias[ch]` (the batched conv unshuffle's fold),
// batchnorm is `Gamma[ch]*(v-Mean[ch])*InvStd[ch] + Beta[ch]` (the
// BatchNormForward expression, with InvStd precomputed by the same
// 1/sqrt(var+eps) float64 formula BatchNormInference uses per call), and
// ReLU keeps v only when v > 0 (NaN maps to 0, like ReLUForward). A fused
// forward is therefore bitwise identical to conv + BatchNormInference +
// ReLUForward run as separate passes.
type Epilogue struct {
	Bias []float32 // conv bias, length N; nil = no bias

	// Batchnorm scale/shift in inference form; all four nil or all set.
	Gamma, Beta, Mean, InvStd []float32

	ReLU bool
}

// NewBNEpilogue builds the batchnorm part of an epilogue from running
// statistics, precomputing InvStd with BatchNormInference's exact formula.
func NewBNEpilogue(bias, gamma, beta, runMean, runVar []float32, eps float32, relu bool) *Epilogue {
	invstd := make([]float32, len(runVar))
	for ci, v := range runVar {
		invstd[ci] = float32(1.0 / math.Sqrt(float64(v)+float64(eps)))
	}
	return &Epilogue{Bias: bias, Gamma: gamma, Beta: beta, Mean: runMean, InvStd: invstd, ReLU: relu}
}

// apply runs the epilogue over the mi x ni tile at the head of c (row
// stride ldc) whose first column is global column j0. The walk is row-major
// over contiguous row slices with the per-channel vectors pre-sliced to the
// tile's column window (same length as each row, so the bounds checks fold
// away); the common serving shape — batchnorm, no bias, with or without
// ReLU — gets a single fused pass. Per-element arithmetic is identical
// across the specializations: bias add, then the batchnorm expression, then
// the v > 0 keep, in that order.
func (e *Epilogue) apply(c []float32, ldc, mi, ni, j0 int) {
	if e.Gamma != nil && e.Bias == nil {
		g := e.Gamma[j0 : j0+ni]
		mn := e.Mean[j0 : j0+ni]
		is := e.InvStd[j0 : j0+ni]
		bt := e.Beta[j0 : j0+ni]
		if bnEpilogueTileAsm(c, ldc, mi, ni, g, mn, is, bt, e.ReLU) {
			return
		}
		for r := 0; r < mi; r++ {
			row := c[r*ldc : r*ldc+ni]
			if e.ReLU {
				for q, v := range row {
					v = g[q]*(v-mn[q])*is[q] + bt[q]
					if !(v > 0) {
						v = 0
					}
					row[q] = v
				}
			} else {
				for q, v := range row {
					row[q] = g[q]*(v-mn[q])*is[q] + bt[q]
				}
			}
		}
		return
	}
	for r := 0; r < mi; r++ {
		row := c[r*ldc : r*ldc+ni]
		if e.Bias != nil {
			b := e.Bias[j0 : j0+ni]
			for q := range row {
				row[q] += b[q]
			}
		}
		if e.Gamma != nil {
			g := e.Gamma[j0 : j0+ni]
			mn := e.Mean[j0 : j0+ni]
			is := e.InvStd[j0 : j0+ni]
			bt := e.Beta[j0 : j0+ni]
			for q, v := range row {
				row[q] = g[q]*(v-mn[q])*is[q] + bt[q]
			}
		}
		if e.ReLU {
			for q, v := range row {
				if !(v > 0) {
					row[q] = 0
				}
			}
		}
	}
}

// GemmNNPrepacked computes C = alpha*A*op(B) + beta*C with op(B) prepacked;
// A is row-major M x K. Like GemmNNStable it always takes the packed path,
// so the per-element accumulation order — and therefore the bitwise
// independence of N the serving batcher relies on — is identical; the only
// difference from GemmNNStable is that the pack-B phase never runs.
func GemmNNPrepacked(m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	GemmPrepacked(false, m, n, k, alpha, a, pb, beta, c, nil, nil, 0)
}

// GemmPrepacked is the full-control prepacked entry: transA selects whether
// a is M x K (false) or K x M with op(A) = aᵀ (true), epi is an optional
// fused store epilogue, and tr/id carry optional flight-recorder
// attribution (note no gemm_pack_b span is ever emitted — that phase does
// not exist on this path).
func GemmPrepacked(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32, epi *Epilogue, tr *obs.Ring, id uint64) {
	checkGemm(m, n, k, len(a), k*n, len(c))
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(beta, c[:m*n])
		if epi != nil {
			epi.apply(c, n, m, n, 0)
		}
		return
	}
	gemmPacked(transA, false, m, n, k, alpha, a, nil, beta, c, pb, epi, nil, tr, id)
}
