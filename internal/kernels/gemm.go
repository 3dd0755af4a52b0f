package kernels

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Cache-blocking parameters for the packed GEMM. The K dimension is blocked
// in KC-deep panels (one packed B strip of KC x NR floats stays L1/L2
// resident through a full sweep of A micro-panels); the N dimension is
// blocked in NC-wide panels bounding the packed-B footprint. The register
// microkernel computes an MR x NR tile of C per call; MR and NR are
// properties of the selected microkernel geometry (see gemm_geom.go), not
// compile-time constants, so the AVX-512 16x32 tile and the AVX2 6x16 tile
// share every line of the blocking machinery.
const (
	gemmKC = 256
	gemmNC = 1024

	// maxMR/maxNR bound the register-tile geometry so edge tiles can live
	// on the stack regardless of which microkernel is active.
	maxMR = 16
	maxNR = 32

	// smallGemmFlops is the m*n*k threshold below which packing cannot
	// amortize; smaller problems take the direct loops.
	smallGemmFlops = 1 << 14

	// gemmParCutover is the m*n*k multiply-add count below which the packed
	// path runs its pack/compute phases inline on the calling goroutine:
	// the worker pool's fixed dispatch-and-wait cost (~a microsecond)
	// exceeds the compute for small problems, and chunking never changes
	// which tile writes which C element, so the cutover is invisible in
	// the produced bits.
	gemmParCutover = 1 << 17
)

// GemmNN computes C = alpha*A*B + beta*C for row-major A (M x K), B (K x N),
// C (M x N).
func GemmNN(m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	gemm(false, false, m, n, k, alpha, a, b, beta, c)
}

// GemmNNStable computes C = alpha*A*B + beta*C like GemmNN, but always
// takes the packed register-blocked path regardless of problem size. Within
// that path each output element's K-accumulation order is fixed by the KC
// panel schedule alone, so results are bitwise independent of N — the
// property the serving batcher relies on: a request's answer may not change
// with the number of requests sharing its micro-batch. Tiny problems pay
// the packing overhead GemmNN's small-path dispatch avoids, which is the
// price of determinism.
func GemmNNStable(m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	GemmNNStableTraced(m, n, k, alpha, a, b, beta, c, nil, 0)
}

// GemmNNStableTraced is GemmNNStable with flight-recorder attribution: when
// tr is non-nil, per-phase spans (gemm_pack_a, gemm_pack_b, gemm_kernel)
// tagged with the correlation id land on that ring. A nil tr skips every
// tracing hook, so the untraced path pays nothing.
func GemmNNStableTraced(m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32, tr *obs.Ring, id uint64) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(beta, c[:m*n])
		return
	}
	gemmPacked(false, false, m, n, k, alpha, a, b, beta, c, nil, nil, nil, tr, id)
}

// GemmNT computes C = alpha*A*Bᵀ + beta*C for row-major A (M x K),
// B (N x K), C (M x N).
func GemmNT(m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	checkGemm(m, n, k, len(a), len(b), len(c)) // B is N x K, but n*k == k*n
	gemm(false, true, m, n, k, alpha, a, b, beta, c)
}

// GemmTN computes C = alpha*Aᵀ*B + beta*C for row-major A (K x M),
// B (K x N), C (M x N).
func GemmTN(m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	gemm(true, false, m, n, k, alpha, a, b, beta, c)
}

// gemm dispatches on problem size: direct loops for tiny problems, the
// packed register-blocked path otherwise.
func gemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(beta, c[:m*n])
		return
	}
	if m*n*k < smallGemmFlops {
		gemmSmall(transA, transB, m, n, k, alpha, a, b, beta, c)
		return
	}
	gemmPacked(transA, transB, m, n, k, alpha, a, b, beta, c, nil, nil, nil, nil, 0)
}

// gemmSmall is the direct (unpacked) path: serial triple loops in the
// association order of the original implementation. At these sizes it beats
// packing and performs no allocations.
func gemmSmall(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	scaleC(beta, c[:m*n])
	switch {
	case !transA && !transB:
		for i := 0; i < m; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				axpy(alpha*ai[p], b[p*n:(p+1)*n], ci)
			}
		}
	case !transA && transB:
		for i := 0; i < m; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += alpha * dot(ai, b[j*k:(j+1)*k])
			}
		}
	default: // transA && !transB
		for p := 0; p < k; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n : (p+1)*n]
			for i := 0; i < m; i++ {
				axpy(alpha*ap[i], bp, c[i*n:(i+1)*n])
			}
		}
	}
}

// gemmState carries one packed-GEMM invocation through its pack and compute
// phases. States are pooled and the pack panels come from the default
// workspace, so a warm GEMM performs no heap allocations.
type gemmState struct {
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	transA, transB bool

	mr, nr int // register-tile geometry of the active microkernel
	kern   microKernelFunc
	pb     *PackedB   // prepacked op(B); nil = pack on the fly
	epi    *Epilogue  // fused store epilogue; nil = plain store
	aIm    im2colASrc // implicit op(A) source; active when aIm.x != nil
	par    bool       // dispatch phases on the worker pool

	rp        int  // A micro-panels (rows of C / MR, rounded up)
	rowBlocks int  // row-block factor of the compute domain
	p0, kc    int  // current K panel
	jj, nc    int  // current N panel
	first     bool // first K panel (beta fold)
	last      bool // last K panel (epilogue fires)
	rowMajor  bool // compute domain is (row block, strip) instead of (strip, row block)

	aPanel, bPanel []float32
}

var gemmStatePool = sync.Pool{New: func() any { return new(gemmState) }}

// The phase wrappers are single-pointer structs, so converting them to
// parallelJob stores the pointer directly in the interface — no allocation.
type gemmPackAJob struct{ s *gemmState }

func (j gemmPackAJob) RunChunk(lo, hi int) { j.s.packAPanels(lo, hi) }

type gemmPackBJob struct{ s *gemmState }

func (j gemmPackBJob) RunChunk(lo, hi int) { j.s.packBStrips(lo, hi) }

type gemmComputeJob struct{ s *gemmState }

func (j gemmComputeJob) RunChunk(lo, hi int) { j.s.computeStrips(lo, hi) }

// dispatch runs a phase either inline (below the parallel cutover) or
// fanned out over the persistent worker pool.
func (s *gemmState) dispatch(n int, job parallelJob) {
	if !s.par {
		job.RunChunk(0, n)
		return
	}
	parallelChunks(n, job)
}

// gemmPacked runs the blocked algorithm: for each KC-deep K panel, pack all
// of op(A) into MR-interleaved micro-panels (alpha folded in), then for each
// NC-wide N panel pack op(B) into NR-interleaved strips and sweep the
// microkernel over every (strip, micro-panel) tile. beta is folded into the
// first K panel's store (overwrite for beta=0, accumulate for beta=1,
// per-tile pre-scale otherwise) — there is no serial pre-pass over C.
// Compute parallelism is over B strips: tiles in distinct strips touch
// disjoint C columns.
//
// With a non-nil pb the pack-B phase is skipped entirely: strips come
// straight out of the prepacked panel-blocked layout (which must have been
// built under the active microkernel geometry). With a non-nil epi the
// epilogue is applied to each C tile right after its last K panel's store,
// while the tile is cache-hot (see Epilogue for the bitwise contract).
//
// tr/id carry optional flight-recorder attribution: nil tr means no tracing
// hooks run at all; with a ring, each pack/compute phase emits one span per
// panel, arg = work size (elements packed / fused-multiply-adds swept).
func gemmPacked(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, pb *PackedB, epi *Epilogue, aIm *im2colASrc, tr *obs.Ring, id uint64) {
	g := activeGeom
	if pb != nil {
		if pb.nr != g.nr || pb.kc != gemmKC {
			panic(fmt.Sprintf("kernels: PackedB built for geometry nr=%d kc=%d, active is nr=%d kc=%d (repack after changing kernels)",
				pb.nr, pb.kc, g.nr, gemmKC))
		}
		if pb.k != k || pb.n != n {
			panic(fmt.Sprintf("kernels: PackedB is %dx%d, gemm needs op(B) %dx%d", pb.k, pb.n, k, n))
		}
	}
	s := gemmStatePool.Get().(*gemmState)
	s.m, s.n, s.k = m, n, k
	s.alpha, s.beta = alpha, beta
	s.a, s.b, s.c = a, b, c
	s.transA, s.transB = transA, transB
	s.mr, s.nr, s.kern = g.mr, g.nr, g.kern
	s.pb, s.epi = pb, epi
	if aIm != nil {
		s.aIm = *aIm
	}
	s.par = int64(m)*int64(n)*int64(k) >= gemmParCutover
	s.rp = (m + s.mr - 1) / s.mr
	// 12 micro-panels per row block keeps block overhead small while giving
	// narrow-N problems row-level parallelism.
	s.rowBlocks = (s.rp + 11) / 12

	kcMax := min(k, gemmKC)
	aBuf := defaultWS.Get(s.rp * s.mr * kcMax)
	s.aPanel = *aBuf
	var bBuf *[]float32
	if pb == nil {
		ncMax := min((n+s.nr-1)/s.nr*s.nr, gemmNC)
		bBuf = defaultWS.Get(ncMax * kcMax)
		s.bPanel = *bBuf
	}

	for p0 := 0; p0 < k; p0 += gemmKC {
		s.p0 = p0
		s.kc = min(gemmKC, k-p0)
		s.first = p0 == 0
		s.last = p0+s.kc == k
		var t int64
		if tr != nil {
			t = obs.Start()
		}
		s.dispatch(s.rp, gemmPackAJob{s})
		tr.Record(obs.StageGemmPackA, 0, id, t, int64(s.rp*s.mr*s.kc))
		for jj := 0; jj < n; jj += gemmNC {
			s.jj = jj
			s.nc = min(gemmNC, n-jj)
			strips := (s.nc + s.nr - 1) / s.nr
			if pb == nil {
				if tr != nil {
					t = obs.Start()
				}
				s.dispatch(strips, gemmPackBJob{s})
				tr.Record(obs.StageGemmPackB, 0, id, t, int64(s.nc*s.kc))
			}
			// The compute domain is (strip, row-block) pairs. Strip-major
			// order keeps a packed B strip hot across consecutive items —
			// right when packed A is the smaller operand. When packed A is
			// the bigger one (tall-skinny C, the transposed serving conv),
			// strip-major would re-stream the whole A pack once per strip, so
			// the traversal flips to row-block-major: A streams through once
			// while the few B strips stay resident. Either order visits the
			// same disjoint tiles with the same per-tile K schedule, so the
			// choice is invisible in the produced bits.
			s.rowMajor = s.rp*s.mr > s.nc
			if tr != nil {
				t = obs.Start()
			}
			s.dispatch(strips*s.rowBlocks, gemmComputeJob{s})
			tr.Record(obs.StageGemmKernel, 0, id, t, int64(m)*int64(s.nc)*int64(s.kc))
		}
	}

	s.a, s.b, s.c = nil, nil, nil
	s.aPanel, s.bPanel = nil, nil
	s.pb, s.epi = nil, nil
	s.aIm = im2colASrc{}
	defaultWS.Put(aBuf)
	if bBuf != nil {
		defaultWS.Put(bBuf)
	}
	gemmStatePool.Put(s)
}

// packAPanels packs A micro-panels [lo, hi) of the current K panel:
// panel i holds rows i*MR..i*MR+MR of op(A), K-major with the MR rows
// interleaved, scaled by alpha and zero-padded past row m.
func (s *gemmState) packAPanels(lo, hi int) {
	if s.aIm.x != nil {
		s.packAIm2col(lo, hi)
		return
	}
	kc, p0, m, k, alpha, mr := s.kc, s.p0, s.m, s.k, s.alpha, s.mr
	for pnl := lo; pnl < hi; pnl++ {
		dst := s.aPanel[pnl*mr*kc : (pnl+1)*mr*kc]
		i0 := pnl * mr
		if !s.transA {
			for r := 0; r < mr; r++ {
				row := i0 + r
				if row >= m {
					for p := 0; p < kc; p++ {
						dst[p*mr+r] = 0
					}
					continue
				}
				src := s.a[row*k+p0 : row*k+p0+kc]
				for p, v := range src {
					dst[p*mr+r] = alpha * v
				}
			}
		} else {
			// op(A) = Aᵀ with A row-major K x M: column i of op(A) is
			// contiguous in A's row p.
			nr := min(mr, m-i0)
			for p := 0; p < kc; p++ {
				src := s.a[(p0+p)*m+i0:]
				o := p * mr
				for r := 0; r < nr; r++ {
					dst[o+r] = alpha * src[r]
				}
				for r := nr; r < mr; r++ {
					dst[o+r] = 0
				}
			}
		}
	}
}

// packBStrips packs B strips [lo, hi) of the current (K, N) panel: strip j
// holds columns jj+j*NR..+NR of op(B), K-major with the NR columns
// interleaved, zero-padded past column n.
func (s *gemmState) packBStrips(lo, hi int) {
	kc, p0, n, k, nrW := s.kc, s.p0, s.n, s.k, s.nr
	for st := lo; st < hi; st++ {
		dst := s.bPanel[st*nrW*kc : (st+1)*nrW*kc]
		j0 := s.jj + st*nrW
		nj := min(nrW, s.jj+s.nc-j0)
		if !s.transB {
			for p := 0; p < kc; p++ {
				src := s.b[(p0+p)*n+j0:]
				o := p * nrW
				for q := 0; q < nj; q++ {
					dst[o+q] = src[q]
				}
				for q := nj; q < nrW; q++ {
					dst[o+q] = 0
				}
			}
		} else {
			// op(B) = Bᵀ with B row-major N x K: column j of op(B) is
			// contiguous in B's row j. Rows go eight at a time, so each k
			// step stores one contiguous run rather than eight strided
			// words; the last few rows and the zero padding are then
			// filled one packed row at a time. (The backward-filter GEMM
			// packs its whole column matrix this way.)
			q := 0
			for ; q+8 <= nj; q += 8 {
				b0 := s.b[(j0+q)*k+p0:][:kc]
				b1 := s.b[(j0+q+1)*k+p0:][:kc]
				b2 := s.b[(j0+q+2)*k+p0:][:kc]
				b3 := s.b[(j0+q+3)*k+p0:][:kc]
				b4 := s.b[(j0+q+4)*k+p0:][:kc]
				b5 := s.b[(j0+q+5)*k+p0:][:kc]
				b6 := s.b[(j0+q+6)*k+p0:][:kc]
				b7 := s.b[(j0+q+7)*k+p0:][:kc]
				for p := range b0 {
					d := dst[p*nrW+q:][:8]
					d[0], d[1], d[2], d[3] = b0[p], b1[p], b2[p], b3[p]
					d[4], d[5], d[6], d[7] = b4[p], b5[p], b6[p], b7[p]
				}
			}
			if q == nrW {
				continue
			}
			for p := 0; p < kc; p++ {
				d := dst[p*nrW : (p+1)*nrW]
				for r := q; r < nj; r++ {
					d[r] = s.b[(j0+r)*k+p0+p]
				}
				clear(d[nj:])
			}
		}
	}
}

// bStripFor returns packed strip st of the current (K, N) panel: from the
// scratch panel when packing on the fly, or sliced straight out of the
// prepacked layout (strips are NR-interleaved in both, byte-identical).
func (s *gemmState) bStripFor(st, kc int) []float32 {
	if s.pb == nil {
		return s.bPanel[st*s.nr*kc : (st+1)*s.nr*kc]
	}
	gs := s.jj/s.nr + st // global strip index
	off := s.p0*s.pb.strips*s.nr + gs*s.nr*kc
	return s.pb.data[off : off+s.nr*kc]
}

// computeStrips runs the microkernel over compute-domain items [lo, hi),
// where item st*rowBlocks+rb is (B strip st, A row block rb). Full tiles
// store straight into C; edge tiles (padded rows or columns) compute into a
// stack tile and merge only the valid region. There is deliberately no
// zero-value skip on packed A entries: a zero times an Inf/NaN in B must
// propagate, and the branch would stall the FMA pipeline.
//
// On the last K panel a fused epilogue (if any) is applied to each tile
// right after its store, while the tile is still cache-resident — this is
// where the BN-scale/shift + ReLU passes of the inference path disappear
// into the GEMM's own store phase.
func (s *gemmState) computeStrips(lo, hi int) {
	kc, n, m, mr, nr := s.kc, s.n, s.m, s.mr, s.nr
	panelsPerBlock := (s.rp + s.rowBlocks - 1) / s.rowBlocks
	// The edge tile comes from the workspace, not the stack: the microkernel
	// is an indirect call, so a stack array would be forced to escape (one
	// heap allocation per chunk). Fetched lazily — full-tile-only chunks
	// never touch the pool.
	var tileBuf *[]float32
	var tile []float32
	strips := (s.nc + nr - 1) / nr
	for item := lo; item < hi; item++ {
		var st, rb int
		if s.rowMajor {
			rb = item / strips
			st = item % strips
		} else {
			st = item / s.rowBlocks
			rb = item % s.rowBlocks
		}
		bStrip := s.bStripFor(st, kc)
		jBase := s.jj + st*nr
		ni := min(nr, s.jj+s.nc-jBase)
		pnlHi := min((rb+1)*panelsPerBlock, s.rp)
		for pnl := rb * panelsPerBlock; pnl < pnlHi; pnl++ {
			aPanel := s.aPanel[pnl*mr*kc : (pnl+1)*mr*kc]
			iBase := pnl * mr
			mi := min(mr, m-iBase)
			cOff := iBase*n + jBase
			if mi == mr && ni == nr {
				stored := false
				if s.first {
					switch s.beta {
					case 0:
						s.kern(kc, aPanel, bStrip, s.c[cOff:], n, false)
						stored = true
					case 1:
					default:
						scaleTile(s.c[cOff:], n, mr, nr, s.beta)
					}
				}
				if !stored {
					s.kern(kc, aPanel, bStrip, s.c[cOff:], n, true)
				}
			} else {
				if tileBuf == nil {
					tileBuf = defaultWS.Get(maxMR * maxNR)
					tile = *tileBuf
				}
				s.kern(kc, aPanel, bStrip, tile, nr, false)
				mergeTile(s.c[cOff:], n, tile, nr, mi, ni, s.first, s.beta)
			}
			if s.epi != nil && s.last {
				s.epi.apply(s.c[cOff:], n, mi, ni, jBase)
			}
		}
	}
	if tileBuf != nil {
		defaultWS.Put(tileBuf)
	}
}

// goKernel6x16 is the portable 6x16 microkernel on the packed panel layout.
func goKernel6x16(kc int, a, b, c []float32, ldc int, accum bool) {
	const mr, nr = 6, 16
	var acc [mr * nr]float32
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		bb := b[bi : bi+nr]
		for r := 0; r < mr; r++ {
			av := a[ai+r]
			row := acc[r*nr : r*nr+nr]
			for q, bv := range bb {
				row[q] += av * bv
			}
		}
		ai += mr
		bi += nr
	}
	storeAcc(acc[:], mr, nr, c, ldc, accum)
}

// goKernel16x32 is the portable microkernel on the AVX-512 packed layout
// (16-interleaved A panels, 32-interleaved B strips), used as the fallback
// when the assembly kernel is unavailable or disabled in tests.
func goKernel16x32(kc int, a, b, c []float32, ldc int, accum bool) {
	const mr, nr = 16, 32
	var acc [mr * nr]float32
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		bb := b[bi : bi+nr]
		for r := 0; r < mr; r++ {
			av := a[ai+r]
			row := acc[r*nr : r*nr+nr]
			for q, bv := range bb {
				row[q] += av * bv
			}
		}
		ai += mr
		bi += nr
	}
	storeAcc(acc[:], mr, nr, c, ldc, accum)
}

// storeAcc writes an accumulator tile to C (row stride ldc), overwriting or
// accumulating.
func storeAcc(acc []float32, mr, nr int, c []float32, ldc int, accum bool) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		arow := acc[r*nr : (r+1)*nr]
		if accum {
			for q, v := range arow {
				crow[q] += v
			}
		} else {
			copy(crow, arow)
		}
	}
}

// scaleTile multiplies the mi x ni tile at the head of c (row stride ldc)
// by beta — the per-tile fold of a beta outside {0, 1}.
func scaleTile(c []float32, ldc, mi, ni int, beta float32) {
	for r := 0; r < mi; r++ {
		row := c[r*ldc : r*ldc+ni]
		for q := range row {
			row[q] *= beta
		}
	}
}

// mergeTile folds the valid mi x ni region of an edge tile (row stride
// tileLd) into C, applying the first-panel beta semantics.
func mergeTile(c []float32, ldc int, tile []float32, tileLd, mi, ni int, first bool, beta float32) {
	for r := 0; r < mi; r++ {
		crow := c[r*ldc : r*ldc+ni]
		trow := tile[r*tileLd : r*tileLd+ni]
		switch {
		case !first || beta == 1:
			for q, v := range trow {
				crow[q] += v
			}
		case beta == 0:
			copy(crow, trow)
		default:
			for q, v := range trow {
				crow[q] = beta*crow[q] + v
			}
		}
	}
}

func checkGemm(m, n, k, la, lb, lc int) {
	if la < m*k && !(m == 0 || k == 0) {
		panic(fmt.Sprintf("kernels: gemm A has %d elements, need %d", la, m*k))
	}
	if lb < k*n && !(k == 0 || n == 0) {
		panic(fmt.Sprintf("kernels: gemm B has %d elements, need %d", lb, k*n))
	}
	if lc < m*n && !(m == 0 || n == 0) {
		panic(fmt.Sprintf("kernels: gemm C has %d elements, need %d", lc, m*n))
	}
}

func scaleC(beta float32, c []float32) {
	switch beta {
	case 1:
	case 0:
		clear(c)
	default:
		for i := range c {
			c[i] *= beta
		}
	}
}

// axpy computes y += a*x with 4-way unrolling.
func axpy(a float32, x, y []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// dot returns the inner product of x and y with 4-way unrolling.
func dot(x, y []float32) float32 {
	n := len(x)
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}
