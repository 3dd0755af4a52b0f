package nn

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay. On a distributed network the gradients are already
// allreduced, so each rank steps its replicated parameters independently
// and they remain bitwise identical (Section III-A).
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	vel [][]float32
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to every parameter. The params slice must be the
// same (same order, same lengths) on every call.
func (o *SGD) Step(params []Param) {
	if o.vel == nil {
		o.vel = make([][]float32, len(params))
		for i, p := range params {
			o.vel[i] = make([]float32, len(p.W))
		}
	}
	if len(o.vel) != len(params) {
		panic("nn: SGD.Step called with a different parameter set")
	}
	for i, p := range params {
		v := o.vel[i]
		if len(v) != len(p.W) {
			panic("nn: SGD parameter size changed between steps")
		}
		for j := range p.W {
			g := p.G[j] + o.WeightDecay*p.W[j]
			v[j] = o.Momentum*v[j] - o.LR*g
			p.W[j] += v[j]
		}
	}
}
