// Package kernels provides the sequential compute kernels that substitute
// for cuDNN in the paper's implementation: 2-D convolution (direct and
// im2col+GEMM forward; GEMM-lowered backward-data and backward-filter),
// pooling, batch normalization, ReLU, losses, and a packed register-blocked
// multicore SGEMM. All kernels operate on NCHW float32 tensors.
//
// Kernels are shape-exact: the distributed algorithms in internal/core call
// them on halo-extended local buffers with pad=0, and the results are
// bitwise comparable (up to float accumulation order) with a single-device
// run, mirroring Section III's "exactly replicates convolution" guarantee.
//
// # Backward lowering
//
// Both 2-D backward convolutions run per sample on the packed GEMM (the
// im2col lowering of Chellapilla et al., 2006). Backward-filter computes
// dW[F, C*K*K] += dy[F, OH*OW] · col[C*K*K, OH*OW]ᵀ with GemmNT, beta 1,
// after zeroing dW once unless accumulating; col is the im2col unfolding of
// x in workspace scratch. Backward-data computes col = Wᵀ · dy as a
// [C*K*K, dyH*dyW] GemmTN, then a per-channel-parallel col2im overwrites
// each dx plane with the sum of its column entries. The col2im clips every
// tap to the dx region (xLoH, xLoW) given the dy region's origin (yLoH,
// yLoW, negative when it includes zero padding rows): a dx element receives
// exactly the contributions of the dy positions present, so the halo path
// in internal/core keeps its gather contract — each dx element is owned by
// one call and no cross-region reduction follows. For a 1x1, stride-1,
// unpadded convolution no column matrix exists: backward-filter reads x as
// col, and backward-data, when the dx and dy regions coincide, is one GemmTN
// straight into dx. Neither lowering skips zeros, so a NaN in dy reaches dx
// and dW; per-channel col2im planes are disjoint, so results are bitwise
// repeatable at any worker count.
//
// # GEMM architecture
//
// GemmNN/GemmNT/GemmTN share one packed, cache-blocked implementation
// (gemm.go). The K dimension is blocked into KC=256-deep panels and the N
// dimension into NC=1024-wide panels. Per K panel, op(A) is packed into
// MR-interleaved micro-panels with alpha folded in; per (K, N) panel, op(B)
// is packed into NR-interleaved strips. An MR x NR = 6x16 register-tile
// microkernel (AVX2+FMA assembly on capable amd64 CPUs, detected at startup
// via CPUID/XGETBV; a portable Go kernel elsewhere) accumulates the tile
// across the packed panels: per k step it performs 2 vector loads, 6
// broadcasts, and 12 FMAs. beta scaling is folded into the first K panel's
// store (overwrite for beta=0, accumulate for beta=1, per-tile pre-scale
// otherwise) — there is no serial pre-pass over C. Edge tiles compute into
// a stack tile and merge only the valid region, so the microkernel always
// runs at full shape. Problems below a small m*n*k threshold take direct
// unpacked loops instead. Transpose variants differ only in their pack
// routines, so NT and TN run at NN speed.
//
// On AVX-512F machines the default register tile widens to MR x NR = 16x32
// (sgemmKernel16x32); detection picks the widest supported kernel and
// REPRO_GEMM_KERNEL=generic|avx2|avx512 overrides it. Every kernel updates
// each accumulator element exactly once per k step, in ascending k order,
// with single-rounding FMAs, so all geometries produce bitwise-identical
// results on identically packed panels.
//
// # Prepacked B and the packed-B memory layout
//
// Serving weights are GEMM's B operand and never change between requests,
// so PackB snapshots the pack-B output once into a PackedB and
// GemmPrepacked / GemmNNPrepacked / ConvForwardBatchedPrepacked skip the
// per-call pack-B stage entirely. The layout is the pack-on-the-fly layout,
// frozen: B is split into ceil(k/KC) x ceil(n/NC) panels, ordered K-major
// within each N panel; each panel is a sequence of NR-interleaved strips
// (strip s holds columns s*NR..s*NR+NR-1; element (p, j) of a strip lives
// at p*NR + (j - s*NR), short strips zero-padded to NR). Because the bytes
// equal what packBStrips would have produced, prepacked results are
// bit-for-bit identical to the on-the-fly path (enforced by test). A
// PackedB is tied to the geometry that packed it; PackB records the
// geometry so a REPRO_GEMM_KERNEL override or checkpoint restore repacks.
//
// # Fused epilogues
//
// GemmNNPrepacked takes an optional Epilogue — per-output-channel bias, or
// inference batchnorm (Gamma*(v-Mean)*InvStd + Beta), optionally followed
// by ReLU — applied in the microkernel's C store while the tile is still
// cache-hot, on the last K panel only. The contract is bitwise: the fused
// result must equal running the unfused GEMM and then the separate
// BatchNormInference / ReLUForward kernels. That pins the exact expression
// shape (single-rounding per step, InvStd computed in float64 then rounded
// once) and the ReLU clamp semantics (v kept only when v > 0, so NaN and
// -0 both store +0). An AVX-512 row routine (sbnEpilogueRow) vectorizes the
// BN(+ReLU) form; VSUBPS/VMULPS/VADDPS round exactly like the scalar Go
// expression and VMAXPS with zero as second source matches the clamp, so
// the guarantee survives vectorization.
//
// # Intra-GEMM parallelism
//
// Above a flops cutover (gemmParCutover; small problems stay serial and
// very small ones take the direct loops), a single GEMM's compute phase
// fans (N strip, M row-block) tiles out over the worker pool as pooled
// jobs. Tiles are disjoint in C and every element still accumulates in
// ascending k order within each K panel, so parallel results are bitwise
// equal to serial ones. When the packed A panel is much larger than the N
// panel (the transposed serving convolution shape), traversal flips to
// row-block-major so A streams once while B strips stay cache-resident —
// a pure reordering of the same disjoint tiles.
//
// # Workspace lifecycle
//
// Transient kernel storage — GEMM pack panels, im2col column matrices,
// batchnorm moment scratch — is borrowed from a Workspace: a size-bucketed
// (ceiling power-of-two), sync.Pool-backed arena of []float32 buffers. Get
// returns a *[]float32 handle whose slice is valid until the matching Put;
// after a warm-up call every request is served from the pool, so
// steady-state training steps perform no kernel-layer heap allocations
// (asserted by testing.AllocsPerRun regression tests). Layers in
// internal/core borrow their halo-extended and alignment buffers from a
// layer-owned Workspace with the same discipline; kernels themselves draw
// from DefaultWorkspace.
//
// # Worker-pool model
//
// Parallel loops dispatch contiguous chunks onto a persistent worker pool
// (parallel.go): workers are spawned lazily up to the high-water mark of
// requested parallelism, park on a shared queue, and never exit, replacing
// the per-call goroutine fan-out the kernels started with. SetMaxWorkers
// sets the core budget that all running dispatches share, not a per-call
// fan-out: a process-wide counter (coresHeld) holds one core per running
// submitter plus the pool workers each borrowed, and a dispatch claims
// (compare-and-swap, allocation-free) only the cores the budget leaves
// free. A lone call — one rank, one replica — still splits across every
// core; ranks or replicas of one process that compute at once split the
// cores between them, and a call that finds every core held runs inline
// rather than queueing behind another rank's chunks. Every kernel is
// chunk-count-independent, so the split never changes the bits.
// SetMaxWorkers(1) runs every kernel inline, as training under the
// multi-rank-in-one-process drivers does. Submitters never block on the
// queue (a full queue runs the chunk inline) and help drain it while
// waiting, which makes nested dispatch deadlock-free — every waiter is
// also an executor. Hot kernels describe their work with pooled job
// structs (parallelJob) instead of closures, keeping dispatch
// allocation-free.
package kernels
