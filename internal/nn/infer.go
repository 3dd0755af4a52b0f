package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// inferNoFusion disables the prepacked/fused serving path when set: nets
// built while it is true run every conv through the legacy pack-on-the-fly
// ConvForwardBatched and execute batchnorm/ReLU as separate layers. The
// fused path is bitwise identical to the legacy one (test-enforced), so the
// knob exists for the equivalence test that builds the legacy oracle, not
// for correctness escapes. Read once at NewInferNet.
var inferNoFusion atomic.Bool

// InferNet is the forward-only execution engine behind the serving
// subsystem: it runs an architecture in eval mode (batch normalization uses
// running statistics) for any batch size up to a fixed capacity, with every
// activation buffer preallocated at construction. A warm Forward therefore
// performs no heap allocations — the property internal/serve builds its
// zero-alloc Predict path on.
//
// Three things distinguish it from an eval-mode SeqNet:
//
//   - Activations live in capacity-sized buffers reused across calls;
//     sub-batch calls run on cached views of their prefix. Shape-preserving
//     layers (batchnorm, ReLU) write in place when they are their parent's
//     only consumer, so a ResNet block chain touches one buffer.
//   - Convolutions use kernels.ConvForwardBatched: the whole micro-batch is
//     lowered onto a single packed GEMM, which is where dynamic batching's
//     throughput over batch-1 serving comes from.
//   - No gradient or stash state exists at all; Params/Buffers expose the
//     weights only so checkpoints can be restored into the net.
//
// An InferNet is NOT safe for concurrent Forward calls; the server gives
// each replica its own (Clone shares the read-only weights).
type InferNet struct {
	Arch    *Arch
	ShapeOf []Shape

	maxN   int
	layers []inferLayer
	bufs   []*tensor.Tensor   // capacity-sized output storage (aliased for in-place layers)
	views  [][]*tensor.Tensor // views[i][b]: batch-b prefix of bufs[i], cached lazily
	cur    []*tensor.Tensor   // per-forward outputs, reused across calls
	fused  []bool             // layer folded into its parent conv's epilogue; Forward skips it

	trace   *obs.Ring // flight-recorder track; nil = no tracing hooks at all
	traceID uint64    // correlation id stamped on spans (serving batch seq)
}

// SetTrace attaches a flight-recorder ring: subsequent Forward calls emit
// per-layer spans (and per-phase conv spans) on it when tracing is enabled.
// Nil detaches; with no ring the forward path runs zero tracing hooks.
func (n *InferNet) SetTrace(r *obs.Ring) { n.trace = r }

// SetTraceID sets the correlation id stamped on subsequent spans; the
// serving layer uses the batch sequence number.
func (n *InferNet) SetTraceID(id uint64) { n.traceID = id }

// NewInferNet instantiates a forward-only engine for arch with capacity for
// batches of up to maxBatch samples. Weights start He-initialized like
// NewSeqNet(seed=0) would; restore real ones with LoadState into
// Params()/Buffers().
func NewInferNet(arch *Arch, maxBatch int) (*InferNet, error) {
	if maxBatch < 1 {
		return nil, fmt.Errorf("nn: infer net needs maxBatch >= 1, got %d", maxBatch)
	}
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	n := &InferNet{
		Arch:    arch,
		ShapeOf: shapes,
		maxN:    maxBatch,
		layers:  make([]inferLayer, len(arch.Specs)),
		bufs:    make([]*tensor.Tensor, len(arch.Specs)),
		views:   make([][]*tensor.Tensor, len(arch.Specs)),
		cur:     make([]*tensor.Tensor, len(arch.Specs)),
		fused:   make([]bool, len(arch.Specs)),
	}
	children := make([]int, len(arch.Specs))
	childOf := make([]int, len(arch.Specs)) // sole consumer, or -1
	for i := range childOf {
		childOf[i] = -1
	}
	for i, s := range arch.Specs {
		for _, p := range s.Parents {
			children[p]++
			childOf[p] = i
		}
	}
	for i := range childOf {
		if children[i] != 1 {
			childOf[i] = -1
		}
	}
	fusion := !inferNoFusion.Load()
	for i, s := range arch.Specs {
		var in Shape
		if len(s.Parents) > 0 {
			in = shapes[s.Parents[0]]
		}
		switch s.Kind {
		case KindInput:
			n.layers[i] = nil // cur[0] is the caller's input tensor
			continue
		case KindConv:
			l := &inferConv{spec: s, w: tensor.New(s.F, in.C, s.Geom.K, s.Geom.K),
				legacy: !fusion, pack: &convPack{}}
			fanIn := in.C * s.Geom.K * s.Geom.K
			l.w.FillRandN(int64(i), float32(math.Sqrt(2.0/float64(fanIn))))
			if s.Bias {
				l.b = make([]float32, s.F)
			}
			n.layers[i] = l
		case KindBatchNorm:
			n.layers[i] = newInferBN(in.C)
		case KindReLU:
			n.layers[i] = &inferReLU{}
		case KindMaxPool:
			n.layers[i] = &inferMaxPool{spec: s}
		case KindGlobalAvgPool:
			n.layers[i] = &inferGAP{}
		case KindAdd:
			n.layers[i] = &inferAdd{}
		default:
			return nil, fmt.Errorf("nn: unsupported kind %v in infer net", s.Kind)
		}
		// Shape-preserving single-consumer layers run in place on the parent's
		// buffer; everything else gets its own capacity-sized storage. The
		// input layer's "buffer" is whatever tensor the caller passes, so its
		// children never alias it.
		p := s.Parents[0]
		inPlace := (s.Kind == KindBatchNorm || s.Kind == KindReLU) &&
			p != 0 && children[p] == 1
		if inPlace {
			n.bufs[i] = n.bufs[p]
		} else {
			sh := shapes[i]
			n.bufs[i] = tensor.New(maxBatch, sh.C, sh.H, sh.W)
		}
		n.views[i] = make([]*tensor.Tensor, maxBatch+1)
		n.views[i][maxBatch] = n.bufs[i]
	}
	// Fusion plan (topology only; weights are untouched): a conv whose sole
	// consumer is a batchnorm absorbs it into the GEMM's store epilogue, and
	// the batchnorm's sole ReLU consumer rides along; a conv directly feeding
	// its sole ReLU absorbs just the ReLU. The folded layers are exactly the
	// layers the buffer plan above already runs in place (single-consumer
	// shape-preserving children of the conv), so skipping them leaves their
	// aliased buffers holding the conv's — now fused — output, and Forward's
	// view bookkeeping needs no special cases.
	if fusion {
		for i, s := range arch.Specs {
			j := childOf[i]
			if j < 0 {
				continue
			}
			switch s.Kind {
			case KindConv:
				cv := n.layers[i].(*inferConv)
				switch arch.Specs[j].Kind {
				case KindBatchNorm:
					cv.fuseBN = n.layers[j].(*inferBN)
					n.fused[j] = true
					if r := childOf[j]; r >= 0 && arch.Specs[r].Kind == KindReLU {
						cv.fuseReLU = true
						n.fused[r] = true
					}
				case KindReLU:
					cv.fuseReLU = true
					n.fused[j] = true
				}
			case KindAdd:
				// A residual add whose sole consumer is a ReLU applies it in
				// the same elementwise pass (kernels.AddReLU, bitwise equal
				// to the two separate passes).
				if arch.Specs[j].Kind == KindReLU {
					n.layers[i].(*inferAdd).relu = true
					n.fused[j] = true
				}
			}
		}
	}
	return n, nil
}

// Repack drops every conv layer's prepacked weights and cached epilogue;
// the next Forward rebuilds them from current parameter values. Call after
// restoring a checkpoint into a net (or any of its clones) that has already
// run a Forward — the serving startup flow (LoadState before the first
// Forward) does not need it, because packing is lazy.
func (n *InferNet) Repack() {
	for _, l := range n.layers {
		if cv, ok := l.(*inferConv); ok {
			cv.pack.p.Store((*packedConv)(nil))
		}
	}
}

// Clone returns an independent execution engine sharing n's (read-only)
// weights and running statistics: fresh activation buffers and scratch, same
// parameter storage. Loading a checkpoint into any clone's Params updates
// all of them — the server restores once and clones per replica.
func (n *InferNet) Clone() (*InferNet, error) {
	c, err := NewInferNet(n.Arch, n.maxN)
	if err != nil {
		return nil, err
	}
	for i, l := range n.layers {
		if l != nil {
			c.layers[i] = l.shareWeights()
		}
	}
	// The clone executes n's fusion plan, not one rebuilt under the current
	// knob state: its conv layers carry n's fuse fields, so the skip list
	// must match them.
	copy(c.fused, n.fused)
	return c, nil
}

// MaxBatch returns the batch capacity Forward accepts.
func (n *InferNet) MaxBatch() int { return n.maxN }

// InShape returns the per-sample input shape.
func (n *InferNet) InShape() Shape { return n.Arch.In }

// OutShape returns the per-sample output shape.
func (n *InferNet) OutShape() Shape { return n.ShapeOf[len(n.ShapeOf)-1] }

// view returns the cached batch-b view of layer i's buffer.
func (n *InferNet) view(i, b int) *tensor.Tensor {
	if v := n.views[i][b]; v != nil {
		return v
	}
	sh := n.ShapeOf[i]
	v := tensor.FromSlice(n.bufs[i].Data()[:b*sh.C*sh.H*sh.W], b, sh.C, sh.H, sh.W)
	n.views[i][b] = v
	return v
}

// Forward runs the DAG on a batch of 1..MaxBatch samples and returns the
// final layer's output, which is valid until the next Forward call. The
// input tensor is never retained or modified.
func (n *InferNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	xs := x.Shape()
	in := n.Arch.In
	if len(xs) != 4 || xs[1] != in.C || xs[2] != in.H || xs[3] != in.W {
		panic(fmt.Sprintf("nn: infer input shape %v, want [b %d %d %d]", xs, in.C, in.H, in.W))
	}
	b := xs[0]
	if b < 1 || b > n.maxN {
		panic(fmt.Sprintf("nn: infer batch %d outside [1, %d]", b, n.maxN))
	}
	n.cur[0] = x
	var ins [2]*tensor.Tensor
	for i := 1; i < len(n.layers); i++ {
		if n.fused[i] {
			// Folded into the parent conv's epilogue; its buffer aliases the
			// conv's, so the already-written view IS this layer's output.
			n.cur[i] = n.view(i, b)
			continue
		}
		for j, p := range n.Arch.Specs[i].Parents {
			ins[j] = n.cur[p]
		}
		out := n.view(i, b)
		if n.trace != nil {
			t := obs.Start()
			if cv, ok := n.layers[i].(*inferConv); ok {
				cv.forwardTraced(ins, out, n.trace, n.traceID)
			} else {
				n.layers[i].forward(ins, out)
			}
			n.trace.Record(layerStage(n.Arch.Specs[i].Kind), 0, n.traceID, t, int64(i))
		} else {
			n.layers[i].forward(ins, out)
		}
		n.cur[i] = out
	}
	n.cur[0] = nil // drop the caller's input: "never retained" is the contract
	return n.cur[len(n.cur)-1]
}

// Params returns the learnable parameters with the same names a SeqNet of
// this architecture produces, so checkpoints transfer either way. Gradients
// are nil: this engine cannot train.
func (n *InferNet) Params() []Param {
	var ps []Param
	for i, l := range n.layers {
		if l != nil {
			ps = append(ps, l.params(n.Arch.Specs[i].Name)...)
		}
	}
	return ps
}

// Buffers returns the batch-normalization running statistics (names match
// SeqNet.Buffers).
func (n *InferNet) Buffers() []Param {
	var ps []Param
	for i, l := range n.layers {
		if l != nil {
			ps = append(ps, l.buffers(n.Arch.Specs[i].Name)...)
		}
	}
	return ps
}

type inferLayer interface {
	forward(ins [2]*tensor.Tensor, out *tensor.Tensor)
	params(name string) []Param
	buffers(name string) []Param
	// shareWeights returns a copy for another replica: shared read-only
	// weight storage, private mutable scratch.
	shareWeights() inferLayer
}

// convPack is the shared prepack slot of one conv layer: every replica
// cloned from a net points at the same convPack, so the KC x NC panel-blocked
// weights are built once and read by all. The pointer is atomic so warm
// forwards are a single load; the mutex only serializes the (rare) build.
type convPack struct {
	mu sync.Mutex
	p  atomic.Pointer[packedConv]
}

// packedConv is one immutable prepack generation: the panel-blocked weights
// plus the fused store epilogue derived from the current bias/BN values.
// Repack installs nil to force a rebuild from fresh parameters.
type packedConv struct {
	pb  *kernels.PackedB
	epi *kernels.Epilogue
}

type inferConv struct {
	spec Spec
	w    *tensor.Tensor
	b    []float32

	legacy   bool      // pack-on-the-fly ConvForwardBatched (fusion knob off)
	fuseBN   *inferBN  // batchnorm folded into the epilogue; nil = none
	fuseReLU bool      // ReLU folded into the epilogue
	pack     *convPack // shared across clones
}

// packed returns the current prepack generation, building it on first use
// (or after Repack). The build happens at most once per generation across
// all replicas; warm calls cost one atomic load.
func (l *inferConv) packed() *packedConv {
	if pc := l.pack.p.Load(); pc != nil {
		return pc
	}
	l.pack.mu.Lock()
	defer l.pack.mu.Unlock()
	if pc := l.pack.p.Load(); pc != nil {
		return pc
	}
	pc := &packedConv{pb: kernels.PackConvWeights(l.w)}
	if l.fuseBN != nil {
		bn := l.fuseBN
		pc.epi = kernels.NewBNEpilogue(l.b, bn.gamma, bn.beta, bn.runMean, bn.runVar, bn.eps, l.fuseReLU)
	} else if l.b != nil || l.fuseReLU {
		pc.epi = &kernels.Epilogue{Bias: l.b, ReLU: l.fuseReLU}
	}
	l.pack.p.Store(pc)
	return pc
}

func (l *inferConv) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	l.forwardTraced(ins, out, nil, 0)
}

func (l *inferConv) forwardTraced(ins [2]*tensor.Tensor, out *tensor.Tensor, tr *obs.Ring, id uint64) {
	if l.legacy {
		kernels.ConvForwardBatchedTraced(ins[0], l.w, l.b, out, l.spec.Geom.S, l.spec.Geom.Pad, tr, id)
		return
	}
	pc := l.packed()
	kernels.ConvForwardBatchedPrepacked(ins[0], pc.pb, l.spec.Geom.K, pc.epi, out, l.spec.Geom.S, l.spec.Geom.Pad, tr, id)
}

// layerStage maps a layer kind to its flight-recorder stage so traces
// separate conv time (which nests the gemm phases) from batchnorm and the
// cheap elementwise layers.
func layerStage(k Kind) obs.Stage {
	switch k {
	case KindConv:
		return obs.StageLayerConv
	case KindBatchNorm:
		return obs.StageLayerBN
	default:
		return obs.StageLayerOther
	}
}

func (l *inferConv) params(name string) []Param {
	ps := []Param{{Name: name + ".w", W: l.w.Data()}}
	if l.b != nil {
		ps = append(ps, Param{Name: name + ".b", W: l.b})
	}
	return ps
}

func (l *inferConv) buffers(string) []Param { return nil }
func (l *inferConv) shareWeights() inferLayer {
	return &inferConv{spec: l.spec, w: l.w, b: l.b,
		legacy: l.legacy, fuseBN: l.fuseBN, fuseReLU: l.fuseReLU, pack: l.pack}
}

type inferBN struct {
	gamma, beta     []float32
	runMean, runVar []float32
	eps             float32
}

func newInferBN(c int) *inferBN {
	l := &inferBN{
		gamma: make([]float32, c), beta: make([]float32, c),
		runMean: make([]float32, c), runVar: make([]float32, c),
		eps: 1e-5,
	}
	for i := range l.gamma {
		l.gamma[i] = 1
		l.runVar[i] = 1
	}
	return l
}

func (l *inferBN) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	// The kernel derives mean/invstd from the running statistics on every
	// call (O(C) against the O(N*C*H*W) normalization, scratch from the
	// pooled workspace), so restored checkpoints are correct without an
	// explicit freeze step.
	kernels.BatchNormInference(ins[0], l.runMean, l.runVar, l.gamma, l.beta, l.eps, out)
}

func (l *inferBN) params(name string) []Param {
	return []Param{
		{Name: name + ".gamma", W: l.gamma},
		{Name: name + ".beta", W: l.beta},
	}
}

func (l *inferBN) buffers(name string) []Param {
	return []Param{
		{Name: name + ".running_mean", W: l.runMean},
		{Name: name + ".running_var", W: l.runVar},
	}
}

func (l *inferBN) shareWeights() inferLayer {
	// Everything is read-only at inference; the clone IS the layer.
	return l
}

type inferReLU struct{}

func (l *inferReLU) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	kernels.ReLUForward(ins[0], out)
}
func (l *inferReLU) params(string) []Param    { return nil }
func (l *inferReLU) buffers(string) []Param   { return nil }
func (l *inferReLU) shareWeights() inferLayer { return l }

type inferMaxPool struct{ spec Spec }

func (l *inferMaxPool) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	kernels.MaxPoolForward(ins[0], out, l.spec.Geom.K, l.spec.Geom.S, l.spec.Geom.Pad, nil)
}
func (l *inferMaxPool) params(string) []Param    { return nil }
func (l *inferMaxPool) buffers(string) []Param   { return nil }
func (l *inferMaxPool) shareWeights() inferLayer { return l }

type inferGAP struct{}

func (l *inferGAP) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	kernels.GlobalAvgPoolForward(ins[0], out)
}
func (l *inferGAP) params(string) []Param    { return nil }
func (l *inferGAP) buffers(string) []Param   { return nil }
func (l *inferGAP) shareWeights() inferLayer { return l }

type inferAdd struct {
	relu bool // apply the folded sole-consumer ReLU in the same pass
}

func (l *inferAdd) forward(ins [2]*tensor.Tensor, out *tensor.Tensor) {
	if l.relu {
		kernels.AddReLU(ins[0], ins[1], out)
		return
	}
	kernels.Add(ins[0], ins[1], out)
}
func (l *inferAdd) params(string) []Param    { return nil }
func (l *inferAdd) buffers(string) []Param   { return nil }
func (l *inferAdd) shareWeights() inferLayer { return l }
