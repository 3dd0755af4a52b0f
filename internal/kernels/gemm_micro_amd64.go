//go:build amd64

package kernels

// sgemmKernel6x16 is the AVX2+FMA microkernel: it accumulates the 6x16 tile
// sum over kc of aPanel-column x bStrip-row outer products in twelve YMM
// registers, then stores it to C (row stride ldc floats), overwriting when
// accum is 0 and adding when 1. aPanel is 6-interleaved, bStrip
// 16-interleaved (see packAPanels/packBStrips).
//
//go:noescape
func sgemmKernel6x16(kc int, a, b, c *float32, ldc int, accum int)

// sgemmKernel16x32 is the AVX-512F microkernel: a 16x32 tile accumulated in
// ZMM registers over 16-interleaved A panels and 32-interleaved B strips.
// Thirty-two 16-float accumulators plus operands exceed the 32-register
// file, so the kernel internally runs two column-half sweeps (rows 0-15 x
// cols 0-15, then x cols 16-31), each holding 16 accumulators + 1 B vector
// + 1 broadcast; the A panel is L1-resident for the second sweep. Each
// accumulator element is still updated exactly once per k step in ascending
// k order with single-rounding FMAs, so results are bitwise identical to
// the AVX2 kernel's.
//
//go:noescape
func sgemmKernel16x32(kc int, a, b, c *float32, ldc int, accum int)

// sgemmKernel4x32 is the row-short AVX-512F twin of sgemmKernel16x32: a
// 4x32 tile over 4-interleaved A panels and the same 32-interleaved B
// strips, in one sweep (eight accumulators, two B vectors, one broadcast).
// A GEMM with fewer than 16 rows runs it instead of padding every A panel
// to 16 rows; the per-element FMA sequence is the 16x32 kernel's, so the
// bits do not depend on which of the two ran.
//
//go:noescape
func sgemmKernel4x32(kc int, a, b, c *float32, ldc int, accum int)

// sbnEpilogueRow applies the BN(+ReLU) epilogue to one row of n channels:
// c[i] = g[i]*(c[i]-mn[i])*is[i] + bt[i], clamped at zero when relu != 0.
// AVX-512 single-rounding VSUBPS/VMULPS/VADDPS match the scalar Go
// expression bitwise (float multiplication commutes), and VMAXPS with zero
// as the second source reproduces the !(v > 0) NaN/-0 semantics. The tail
// runs under a K mask so subslice operands are never read past n.
//
//go:noescape
func sbnEpilogueRow(c, ga, mn, is, bt *float32, n, relu int)

// bnEpilogueTileAsm applies the bias-free BN(+ReLU) epilogue to an mi x ni
// tile of C with the AVX-512 row routine. Returns false (leaving the tile
// untouched) when the machine lacks AVX-512, so the caller falls back to
// the scalar loop.
func bnEpilogueTileAsm(c []float32, ldc, mi, ni int, g, mn, is, bt []float32, relu bool) bool {
	if !useAVX512Kernel || ni == 0 {
		return false
	}
	rl := 0
	if relu {
		rl = 1
	}
	for r := 0; r < mi; r++ {
		row := c[r*ldc:]
		sbnEpilogueRow(&row[0], &g[0], &mn[0], &is[0], &bt[0], ni, rl)
	}
	return true
}

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// useAsmKernel reports whether the AVX2 assembly microkernel may be used:
// the CPU must support AVX2 and FMA and the OS must have enabled YMM state.
var useAsmKernel = detectAVX2FMA()

// useAVX512Kernel reports whether the AVX-512 microkernel may be used: on
// top of the AVX2+FMA baseline, the CPU must support AVX-512F and the OS
// must have enabled opmask/ZMM state.
var useAVX512Kernel = detectAVX512()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func detectAVX512() bool {
	if !useAsmKernel {
		return false
	}
	// XCR0 bits 1,2 (XMM/YMM) plus 5,6,7 (opmask, ZMM0-15 high, ZMM16-31).
	if lo, _ := xgetbv0(); lo&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// asmKernel6x16 adapts the AVX2 assembly kernel to microKernelFunc.
func asmKernel6x16(kc int, a, b, c []float32, ldc int, accum bool) {
	mode := 0
	if accum {
		mode = 1
	}
	sgemmKernel6x16(kc, &a[0], &b[0], &c[0], ldc, mode)
}

// asmKernel16x32 adapts the AVX-512 assembly kernel to microKernelFunc.
func asmKernel16x32(kc int, a, b, c []float32, ldc int, accum bool) {
	mode := 0
	if accum {
		mode = 1
	}
	sgemmKernel16x32(kc, &a[0], &b[0], &c[0], ldc, mode)
}

// asmKernel4x32 adapts the AVX-512 short-tile kernel to microKernelFunc.
func asmKernel4x32(kc int, a, b, c []float32, ldc int, accum bool) {
	mode := 0
	if accum {
		mode = 1
	}
	sgemmKernel4x32(kc, &a[0], &b[0], &c[0], ldc, mode)
}

var (
	geomAVX2        = microGeom{mr: 6, nr: 16, kern: asmKernel6x16, name: "avx2_6x16"}
	geomAVX512      = microGeom{mr: 16, nr: 32, kern: asmKernel16x32, name: "avx512_16x32", short: &geomAVX512Short}
	geomAVX512Short = microGeom{mr: 4, nr: 32, kern: asmKernel4x32, name: "avx512_4x32"}
)

// detectGeom picks the widest microkernel the CPU supports.
func detectGeom() microGeom {
	if useAVX512Kernel {
		return geomAVX512
	}
	if useAsmKernel {
		return geomAVX2
	}
	return geomGo6x16
}

// platformGeoms returns every geometry usable on this machine: the portable
// Go tiles plus whichever assembly kernels runtime detection admits. The
// cross-kernel agreement tests sweep this set.
func platformGeoms() []microGeom {
	gs := append([]microGeom(nil), portableGeoms...)
	if useAsmKernel {
		gs = append(gs, geomAVX2)
	}
	if useAVX512Kernel {
		gs = append(gs, geomAVX512)
	}
	return gs
}
