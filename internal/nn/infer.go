package nn

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// InferNet is the 1-rank serving engine: the forward-only StrategyNet on a
// one-rank context of its own, under the trivial placement, in eval mode
// (batch normalization uses running statistics), for batches of 1 to
// MaxBatch samples. Each conv lowers the micro-batch onto one GEMM against
// weights packed once, its sole batchnorm and ReLU consumers folded into
// the GEMM's store epilogue. Every layer computes only the batch's rows,
// row-stably, into a buffer it owns, so an answer does not depend on the
// batch a request rides in and a warm Forward allocates nothing (the
// property serve's zero-alloc Predict path rests on). An InferNet is NOT
// safe for concurrent Forward calls; each replica gets its own (Clone).
type InferNet struct {
	Arch *Arch
	engine
}

// engine is what both serving engines run: the forward-only StrategyNet
// and the batch capacity it was built for.
type engine struct {
	net  *StrategyNet
	maxN int
}

// SetTrace attaches this rank's flight-recorder ring: Forward then emits
// per-layer spans, with the conv phases nested, on it when tracing is
// enabled. Nil detaches; with no ring Forward runs zero tracing hooks.
func (e *engine) SetTrace(r *obs.Ring) { e.net.trace = r }

// SetTraceID sets the correlation id stamped on subsequent spans: the
// serving batch seq, which a sharded leader broadcasts to its group.
func (e *engine) SetTraceID(id uint64) { e.net.traceID = id }

// OutShape returns the per-sample output shape.
func (e *engine) OutShape() Shape { return e.net.ShapeOf[len(e.net.ShapeOf)-1] }

// NewInferNet builds the engine for arch and batches of up to maxBatch
// samples, He-initialized like NewSeqNet(seed=0); restore real weights with
// LoadState into Params()/Buffers().
func NewInferNet(arch *Arch, maxBatch int) (*InferNet, error) {
	return newInferNet(arch, maxBatch, nil)
}

// newInferNet builds the 1-rank forward-only net, aliasing src's weights
// when src is non-nil.
func newInferNet(arch *Arch, maxBatch int, src *StrategyNet) (*InferNet, error) {
	pls := ShardedPlacements(arch, 1, dist.SplitNone)
	ctx := core.NewCtx(comm.NewWorld(1).Comm(0), pls[0].Grid)
	net, err := newStrategyNet(ctx, arch, maxBatch, 0, pls, true, src)
	if err != nil {
		return nil, err
	}
	return &InferNet{Arch: arch, engine: engine{net: net, maxN: maxBatch}}, nil
}

// Clone returns an independent engine with its own activation buffers,
// sharing n's read-only weights, running statistics and prepacks: loading a
// checkpoint into any clone's Params updates all of them — the server
// restores once and clones per replica.
func (n *InferNet) Clone() (*InferNet, error) { return newInferNet(n.Arch, n.maxN, n.net) }

// MaxBatch returns the batch capacity Forward accepts.
func (n *InferNet) MaxBatch() int { return n.maxN }

// InShape returns the per-sample input shape.
func (n *InferNet) InShape() Shape { return n.Arch.In }

// Forward runs the DAG on a batch of 1..MaxBatch samples and returns the
// final layer's output, which is valid until the next Forward call. The
// input tensor is never retained or modified.
func (n *InferNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	xs, in := x.Shape(), n.Arch.In
	if len(xs) != 4 || xs[0] < 1 || xs[0] > n.maxN || xs[1] != in.C || xs[2] != in.H || xs[3] != in.W {
		panic(fmt.Sprintf("nn: infer input shape %v, want [1..%d %d %d %d]", xs, n.maxN, in.C, in.H, in.W))
	}
	d := n.net.InputDist()
	d.N = xs[0]
	y := n.net.Forward(core.DistTensor{Dist: d, Local: x})
	n.net.outs[0] = core.DistTensor{} // drop the caller's input
	return y.Local
}

// Params returns the learnable parameters with the same names a SeqNet of
// this architecture produces, so checkpoints transfer either way. Gradients
// are nil: this engine cannot train.
func (n *InferNet) Params() []Param { return n.net.Params() }

// Buffers returns the batch-normalization running statistics (names match
// SeqNet.Buffers).
func (n *InferNet) Buffers() []Param {
	var ps []Param
	for i, o := range n.net.ops {
		if b := o.bn; b != nil {
			name := n.Arch.Specs[i].Name
			ps = append(ps, Param{Name: name + ".running_mean", W: b.RunMean}, Param{Name: name + ".running_var", W: b.RunVar})
		}
	}
	return ps
}
