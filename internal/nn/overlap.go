package nn

import "repro/internal/comm"

// Gradient-overlap engine: hides the parameter-gradient allreduces of
// distributed training behind the remaining backward computation, the
// paper's Aluminum-style overlap (Section IV). As StrategyNet.Backward
// retires layer i, that layer's gradient buckets launch non-blocking
// stable-ring allreduces on the communication proxy, which make progress
// while layers i-1..0 are still running their backward kernels (shuffles
// between placements included); a drain before Backward returns completes
// every request, so the optimizer sees finished gradients exactly as in
// the synchronous mode.
//
// Only replicated-weight convolutions (core.Conv) defer their reductions.
// Batch normalization's gradient reduction rides the backward-stats
// allreduce that the data gradient needs anyway, and channel- and
// filter-parallel convolutions reduce over ctx.ChanPeers inside their
// backward; both leave nothing for the engine.
//
// Small tensors (biases, small weight blocks) are coalesced into fusion
// buckets so a handful of large messages replace many latency-bound small
// ones. Bucket assignment is computed once from the layer list — never
// from runtime timing — and the underlying reduction is rank-order stable
// (comm.Allreduce), so overlapped and synchronous runs produce
// bitwise-identical gradients no matter how the schedule interleaves.

// GradMode selects how a StrategyNet completes parameter gradients.
type GradMode int

const (
	// GradSync is the synchronous baseline: each layer's Backward blocks on
	// its own gradient allreduce before the next layer's kernels start.
	GradSync GradMode = iota
	// GradOverlap defers gradient reductions to bucketed non-blocking
	// allreduces that overlap the remaining backward computation.
	GradOverlap
	// GradSkip leaves deferred gradients unreduced — wrong for training,
	// useful only to measure the communication-free ceiling in benchmarks.
	GradSkip
)

// fuseTargetWords bounds fusion buckets: tensors at least this large are
// reduced in place (no copy); smaller ones coalesce until a bucket reaches
// this many words. 4K words = 16 KiB, comfortably past the latency-bound
// regime of the in-process transport.
const fuseTargetWords = 4096

// gradBucket is one allreduce unit: either a single large tensor reduced
// in place (fused == nil) or a fusion buffer holding several small ones.
type gradBucket struct {
	parts  [][]float32
	words  int
	fused  []float32
	launch int // layer index whose retirement launches this bucket
	req    *comm.Request
}

// gradPlan is the fixed bucket assignment for one StrategyNet.
type gradPlan struct {
	buckets []*gradBucket
	atLayer map[int][]*gradBucket
}

// buildGradPlan walks the ops in retirement order (reverse topological,
// the order Backward visits them) and assigns every deferrable gradient
// tensor to a bucket. The plan depends only on the architecture, so every
// rank computes the identical assignment.
func buildGradPlan(ops []op) *gradPlan {
	p := &gradPlan{atLayer: make(map[int][]*gradBucket)}
	var open *gradBucket
	closeBucket := func() {
		if open == nil {
			return
		}
		open.fused = make([]float32, open.words)
		p.buckets = append(p.buckets, open)
		p.atLayer[open.launch] = append(p.atLayer[open.launch], open)
		open = nil
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].conv == nil {
			continue
		}
		for _, prm := range ops[i].params {
			g := prm.G
			if len(g) == 0 {
				continue
			}
			if len(g) >= fuseTargetWords {
				b := &gradBucket{parts: [][]float32{g}, words: len(g), launch: i}
				p.buckets = append(p.buckets, b)
				p.atLayer[i] = append(p.atLayer[i], b)
				continue
			}
			if open == nil {
				open = &gradBucket{}
			}
			open.parts = append(open.parts, g)
			open.words += len(g)
			open.launch = i // retires when its last-added (deepest) member does
			if open.words >= fuseTargetWords {
				closeBucket()
			}
		}
	}
	closeBucket()
	return p
}

// launch starts the non-blocking reductions of every bucket completed by
// layer i's retirement. Fusion buckets gather their members first, freeing
// the member gradient buffers immediately.
func (p *gradPlan) launch(c *comm.Comm, i int) {
	for _, b := range p.atLayer[i] {
		buf := b.parts[0]
		if b.fused != nil {
			off := 0
			for _, g := range b.parts {
				copy(b.fused[off:off+len(g)], g)
				off += len(g)
			}
			buf = b.fused
		}
		b.req = c.IAllreduce(buf, comm.OpSum)
	}
}

// drain waits for every in-flight bucket (in launch order) and scatters
// fusion buffers back into their member gradient slices.
func (p *gradPlan) drain() {
	for _, b := range p.buckets {
		if b.req == nil {
			continue
		}
		b.req.Wait()
		b.req = nil
		if b.fused != nil {
			off := 0
			for _, g := range b.parts {
				copy(g, b.fused[off:off+len(g)])
				off += len(g)
			}
		}
	}
}
