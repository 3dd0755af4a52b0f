package kernels

import "os"

// microKernelFunc computes one MR x NR register tile on the packed panel
// layout: c = acc (accum=false) or c += acc (accum=true), where acc is the
// sum over kc of aPanel-column x bStrip-row outer products. Every kernel —
// assembly or portable — updates each accumulator element exactly once per
// k step, in ascending k order, so the per-element accumulation order (and
// therefore GemmNNStable's bitwise determinism) is a property of the KC
// panel schedule alone, not of which kernel or tile geometry is active.
type microKernelFunc func(kc int, a, b, c []float32, ldc int, accum bool)

// microGeom is one register-tile geometry: the MR x NR tile shape the pack
// routines interleave for, plus the kernel that consumes it.
type microGeom struct {
	mr, nr int
	kern   microKernelFunc
	name   string

	// short is the row-short twin: a tile with fewer rows on the same
	// NR-interleaved B layout, which a GEMM with fewer than mr rows runs
	// instead (nil = none). It shares every packed B strip and prepacked
	// weight with the full tile and is not separately selectable.
	short *microGeom
}

// The portable geometries. go6x16 is the historical fallback tile; go16x32
// runs on the AVX-512 panel layout so the forced-fallback tests can check
// the wide-tile pack/compute machinery without the assembly kernel, and
// its go_4x32 twin does the same for the row-short tile.
var (
	geomGo6x16  = microGeom{mr: 6, nr: 16, kern: goKernel6x16, name: "go_6x16"}
	geomGo16x32 = microGeom{mr: 16, nr: 32, kern: goKernel16x32, name: "go_16x32", short: &geomGo4x32}
	geomGo4x32  = microGeom{mr: 4, nr: 32, kern: goKernel4x32, name: "go_4x32"}
)

// activeGeom is the microkernel geometry every packed GEMM (and every
// PackedB built by PackB) uses. It is selected once at startup by runtime
// CPU detection — AVX-512 16x32 when available, else AVX2 6x16, else the
// portable Go 6x16 — and never changes during normal operation; tests swap
// it with setGeomForTest, and REPRO_GEMM_KERNEL=<name> forces a specific
// geometry at startup (ignored if that kernel is unusable on this machine).
var activeGeom = pickGeom()

func pickGeom() microGeom {
	if want := os.Getenv("REPRO_GEMM_KERNEL"); want != "" {
		for _, g := range platformGeoms() {
			if g.name == want {
				return g
			}
		}
	}
	return detectGeom()
}

// GemmKernelName reports which microkernel geometry is active
// (avx512_16x32, avx2_6x16, go_16x32, go_6x16), for benchmark labels and
// /statz. It names the full tile; GEMMs with fewer rows than that tile run
// its row-short twin, which is not reported separately.
func GemmKernelName() string { return activeGeom.name }

// portableGeoms are the geometries available on every platform; the
// platform file may extend the usable set with assembly kernels.
var portableGeoms = []microGeom{geomGo6x16, geomGo16x32}
