package nn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Param is one learnable parameter tensor (flattened) with its gradient.
type Param struct {
	Name string
	W, G []float32

	shard *paramShard // set on a tensor whose update is sharded over ranks; see SGD
}

// SeqNet executes an architecture on a single device using the sequential
// kernels. It is the correctness reference for the distributed executor and
// the baseline the paper's sample parallelism replicates per processor.
type SeqNet struct {
	Arch    *Arch
	ShapeOf []Shape
	layers  []seqLayer
	outs    []*tensor.Tensor
	grads   []*tensor.Tensor
	train   bool
}

// NewSeqNet instantiates the architecture with He-initialized weights.
func NewSeqNet(arch *Arch, seed int64) (*SeqNet, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	n := &SeqNet{Arch: arch, ShapeOf: shapes, train: true}
	for i, s := range arch.Specs {
		var in Shape
		if len(s.Parents) > 0 {
			in = shapes[s.Parents[0]]
		}
		switch s.Kind {
		case KindInput:
			n.layers = append(n.layers, &seqInput{})
		case KindConv:
			l := newSeqConv(s, in, seed+int64(i))
			n.layers = append(n.layers, l)
		case KindBatchNorm:
			n.layers = append(n.layers, newSeqBN(s, in))
		case KindReLU:
			n.layers = append(n.layers, &seqReLU{})
		case KindMaxPool:
			n.layers = append(n.layers, &seqMaxPool{spec: s})
		case KindGlobalAvgPool:
			n.layers = append(n.layers, &seqGAP{})
		case KindAdd:
			n.layers = append(n.layers, &seqAdd{})
		default:
			return nil, fmt.Errorf("nn: unsupported kind %v", s.Kind)
		}
	}
	return n, nil
}

// SetTrain toggles training mode. In training mode batch normalization
// uses batch statistics and every layer retains the activations its
// backward pass needs. In eval mode (t=false) batch normalization uses
// running statistics and forward retains nothing — the forward-only mode
// the serving path runs in; calling Backward after an eval-mode Forward
// panics.
func (n *SeqNet) SetTrain(t bool) { n.train = t }

// Forward runs the DAG and returns the final layer's output.
func (n *SeqNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	n.outs = make([]*tensor.Tensor, len(n.layers))
	for i, l := range n.layers {
		parents := n.Arch.Specs[i].Parents
		ins := make([]*tensor.Tensor, len(parents))
		for j, p := range parents {
			ins[j] = n.outs[p]
		}
		if n.Arch.Specs[i].Kind == KindInput {
			ins = []*tensor.Tensor{x}
		}
		n.outs[i] = l.forward(ins, n.train)
	}
	return n.outs[len(n.outs)-1]
}

// Backward propagates dLast (gradient of the loss in the final output) and
// fills every parameter gradient. It returns the gradient at the input.
func (n *SeqNet) Backward(dLast *tensor.Tensor) *tensor.Tensor {
	n.grads = make([]*tensor.Tensor, len(n.layers))
	n.grads[len(n.layers)-1] = dLast
	for i := len(n.layers) - 1; i >= 0; i-- {
		g := n.grads[i]
		if g == nil {
			// Dead branch (no children contributed): zero gradient.
			s := n.outs[i].Shape()
			g = tensor.New(s...)
		}
		parentGrads := n.layers[i].backward(g)
		for j, p := range n.Arch.Specs[i].Parents {
			if n.grads[p] == nil {
				n.grads[p] = parentGrads[j]
			} else {
				n.grads[p].AddScaled(parentGrads[j], 1)
			}
		}
		if n.Arch.Specs[i].Kind == KindInput {
			return g
		}
	}
	return nil
}

// Params returns every learnable parameter in layer order.
func (n *SeqNet) Params() []Param {
	var ps []Param
	for i, l := range n.layers {
		ps = append(ps, l.params(n.Arch.Specs[i].Name)...)
	}
	return ps
}

// Buffers returns the non-learnable state tensors (batch normalization
// running statistics) in layer order; together with Params they form the
// full state a serving replica needs (SaveState/LoadState).
func (n *SeqNet) Buffers() []Param {
	var ps []Param
	for i, l := range n.layers {
		ps = append(ps, l.buffers(n.Arch.Specs[i].Name)...)
	}
	return ps
}

type seqLayer interface {
	forward(ins []*tensor.Tensor, train bool) *tensor.Tensor
	backward(dy *tensor.Tensor) []*tensor.Tensor
	params(name string) []Param
	buffers(name string) []Param
}

type seqInput struct{}

func (l *seqInput) forward(ins []*tensor.Tensor, _ bool) *tensor.Tensor { return ins[0] }
func (l *seqInput) backward(dy *tensor.Tensor) []*tensor.Tensor         { return nil }
func (l *seqInput) params(string) []Param                               { return nil }
func (l *seqInput) buffers(string) []Param                              { return nil }

type seqConv struct {
	spec  Spec
	w, dw *tensor.Tensor
	b, db []float32
	x     *tensor.Tensor
}

func newSeqConv(s Spec, in Shape, seed int64) *seqConv {
	l := &seqConv{
		spec: s,
		w:    tensor.New(s.F, in.C, s.Geom.K, s.Geom.K),
		dw:   tensor.New(s.F, in.C, s.Geom.K, s.Geom.K),
	}
	// He initialization: std = sqrt(2 / fan_in).
	fanIn := in.C * s.Geom.K * s.Geom.K
	l.w.FillRandN(seed, float32(math.Sqrt(2.0/float64(fanIn))))
	if s.Bias {
		l.b = make([]float32, s.F)
		l.db = make([]float32, s.F)
	}
	return l
}

func (l *seqConv) forward(ins []*tensor.Tensor, train bool) *tensor.Tensor {
	x := ins[0]
	xs := x.Shape()
	y := tensor.New(xs[0], l.spec.F, l.spec.Geom.OutSize(xs[2]), l.spec.Geom.OutSize(xs[3]))
	kernels.ConvForward(x, l.w, l.b, y, l.spec.Geom.S, l.spec.Geom.Pad, kernels.ConvAuto)
	l.x = nil
	if train {
		l.x = x
	}
	return y
}

func (l *seqConv) backward(dy *tensor.Tensor) []*tensor.Tensor {
	kernels.ConvBackwardFilter(l.x, dy, l.dw, l.spec.Geom.S, l.spec.Geom.Pad, false)
	if l.b != nil {
		kernels.BiasBackward(dy, l.db, false)
	}
	dx := tensor.New(l.x.Shape()...)
	kernels.ConvBackwardData(dy, l.w, dx, l.spec.Geom.S, l.spec.Geom.Pad)
	l.x = nil
	return []*tensor.Tensor{dx}
}

func (l *seqConv) params(name string) []Param {
	ps := []Param{{Name: name + ".w", W: l.w.Data(), G: l.dw.Data()}}
	if l.b != nil {
		ps = append(ps, Param{Name: name + ".b", W: l.b, G: l.db})
	}
	return ps
}

func (l *seqConv) buffers(string) []Param { return nil }

type seqBN struct {
	c             int
	gamma, beta   []float32
	dgamma, dbeta []float32
	runMean       []float32
	runVar        []float32
	momentum, eps float32

	x            *tensor.Tensor
	mean, invstd []float32
	count        int

	// Step-persistent scratch, reused across training steps so a warm step
	// performs no per-forward allocations in this layer beyond its output.
	sum, sumsq []float32
}

func newSeqBN(_ Spec, in Shape) *seqBN {
	l := &seqBN{
		c:     in.C,
		gamma: make([]float32, in.C), beta: make([]float32, in.C),
		dgamma: make([]float32, in.C), dbeta: make([]float32, in.C),
		runMean: make([]float32, in.C), runVar: make([]float32, in.C),
		mean: make([]float32, in.C), invstd: make([]float32, in.C),
		sum: make([]float32, in.C), sumsq: make([]float32, in.C),
		momentum: 0.9, eps: 1e-5,
	}
	for i := range l.gamma {
		l.gamma[i] = 1
		l.runVar[i] = 1
	}
	return l
}

func (l *seqBN) forward(ins []*tensor.Tensor, train bool) *tensor.Tensor {
	x := ins[0]
	y := tensor.New(x.Shape()...)
	if !train {
		l.x = nil // a Backward after an eval forward must fail, not reuse a stale stash
		kernels.BatchNormInference(x, l.runMean, l.runVar, l.gamma, l.beta, l.eps, y)
		return y
	}
	xs := x.Shape()
	l.count = xs[0] * xs[2] * xs[3]
	sum, sumsq := l.sum, l.sumsq
	kernels.BatchNormStats(x, sum, sumsq)
	kernels.BatchNormMoments(sum, sumsq, l.count, l.eps, l.mean, l.invstd)
	for ci := 0; ci < l.c; ci++ {
		m := l.mean[ci]
		v := sumsq[ci]/float32(l.count) - m*m
		l.runMean[ci] = l.momentum*l.runMean[ci] + (1-l.momentum)*m
		l.runVar[ci] = l.momentum*l.runVar[ci] + (1-l.momentum)*v
	}
	kernels.BatchNormForward(x, l.mean, l.invstd, l.gamma, l.beta, y)
	l.x = x
	return y
}

func (l *seqBN) buffers(name string) []Param {
	return []Param{
		{Name: name + ".running_mean", W: l.runMean},
		{Name: name + ".running_var", W: l.runVar},
	}
}

func (l *seqBN) backward(dy *tensor.Tensor) []*tensor.Tensor {
	kernels.BatchNormBackwardStats(l.x, dy, l.mean, l.invstd, l.dgamma, l.dbeta)
	dx := tensor.New(l.x.Shape()...)
	kernels.BatchNormBackwardData(l.x, dy, l.mean, l.invstd, l.gamma, l.dgamma, l.dbeta, l.count, dx)
	l.x = nil
	return []*tensor.Tensor{dx}
}

func (l *seqBN) params(name string) []Param {
	return []Param{
		{Name: name + ".gamma", W: l.gamma, G: l.dgamma},
		{Name: name + ".beta", W: l.beta, G: l.dbeta},
	}
}

type seqReLU struct{ x *tensor.Tensor }

func (l *seqReLU) forward(ins []*tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(ins[0].Shape()...)
	kernels.ReLUForward(ins[0], y)
	l.x = nil
	if train {
		l.x = ins[0]
	}
	return y
}

func (l *seqReLU) backward(dy *tensor.Tensor) []*tensor.Tensor {
	dx := tensor.New(l.x.Shape()...)
	kernels.ReLUBackward(l.x, dy, dx)
	l.x = nil
	return []*tensor.Tensor{dx}
}

func (l *seqReLU) params(string) []Param  { return nil }
func (l *seqReLU) buffers(string) []Param { return nil }

type seqMaxPool struct {
	spec   Spec
	argmax []int32
	xShape []int
}

func (l *seqMaxPool) forward(ins []*tensor.Tensor, train bool) *tensor.Tensor {
	x := ins[0]
	xs := x.Shape()
	y := tensor.New(xs[0], xs[1], l.spec.Geom.OutSize(xs[2]), l.spec.Geom.OutSize(xs[3]))
	// Eval-mode forward records no argmax: the scatter indices exist only
	// for the backward pass.
	l.argmax = nil
	if train {
		l.argmax = make([]int32, y.Size())
		l.xShape = append([]int(nil), xs...)
	}
	kernels.MaxPoolForward(x, y, l.spec.Geom.K, l.spec.Geom.S, l.spec.Geom.Pad, l.argmax)
	return y
}

func (l *seqMaxPool) backward(dy *tensor.Tensor) []*tensor.Tensor {
	dx := tensor.New(l.xShape...)
	kernels.MaxPoolBackward(dy, l.argmax, dx)
	l.argmax = nil
	return []*tensor.Tensor{dx}
}

func (l *seqMaxPool) params(string) []Param  { return nil }
func (l *seqMaxPool) buffers(string) []Param { return nil }

type seqGAP struct{ xShape []int }

func (l *seqGAP) forward(ins []*tensor.Tensor, _ bool) *tensor.Tensor {
	x := ins[0]
	xs := x.Shape()
	l.xShape = append([]int(nil), xs...)
	y := tensor.New(xs[0], xs[1], 1, 1)
	plane := xs[2] * xs[3]
	xd, yd := x.Data(), y.Data()
	for i := 0; i < xs[0]*xs[1]; i++ {
		var s float64
		for _, v := range xd[i*plane : (i+1)*plane] {
			s += float64(v)
		}
		yd[i] = float32(s / float64(plane))
	}
	return y
}

func (l *seqGAP) backward(dy *tensor.Tensor) []*tensor.Tensor {
	dx := tensor.New(l.xShape...)
	plane := l.xShape[2] * l.xShape[3]
	scale := 1 / float32(plane)
	dxd, dyd := dx.Data(), dy.Data()
	for i := 0; i < l.xShape[0]*l.xShape[1]; i++ {
		g := dyd[i] * scale
		row := dxd[i*plane : (i+1)*plane]
		for j := range row {
			row[j] = g
		}
	}
	return []*tensor.Tensor{dx}
}

func (l *seqGAP) params(string) []Param  { return nil }
func (l *seqGAP) buffers(string) []Param { return nil }

type seqAdd struct{}

func (l *seqAdd) forward(ins []*tensor.Tensor, _ bool) *tensor.Tensor {
	y := tensor.New(ins[0].Shape()...)
	kernels.Add(ins[0], ins[1], y)
	return y
}

func (l *seqAdd) backward(dy *tensor.Tensor) []*tensor.Tensor {
	a := dy.Clone()
	b := dy.Clone()
	return []*tensor.Tensor{a, b}
}

func (l *seqAdd) params(string) []Param  { return nil }
func (l *seqAdd) buffers(string) []Param { return nil }
