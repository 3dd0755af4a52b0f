package nn

import "repro/internal/comm"

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay.
//
// On a distributed network the update of each large replicated tensor is
// sharded over the ranks that hold it (ZeRO stage 1, Rajbhandari et al.,
// arXiv:1910.02054): a rank updates only the chunk it owns, keeps velocity
// for that chunk alone, and Step then allgathers the tensor, so every rank
// returns with identical parameters. The update is elementwise and the
// gradient reduction rank-ordered, so the result is bitwise the replicated
// update's (Section III-A). Step is therefore collective over the ranks
// that share a sharded tensor: all of them must call it together. Other
// parameters — fused small tensors, batch normalization, channel/filter
// shards and every parameter of a 1-rank net — are updated whole.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	vel [][]float32
}

// paramShard records which chunk of a replicated tensor this rank updates:
// W[lo:hi], the chunk c.OwnedChunk assigns it. It is fixed when the network
// is built, whatever the gradient mode.
type paramShard struct {
	c      *comm.Comm
	lo, hi int
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to every parameter. The params slice must be the
// same (same order, same lengths) on every call. A sharded parameter's
// gradient need only be reduced on the owned chunk; its W is whole and
// identical on every rank when Step returns.
func (o *SGD) Step(params []Param) {
	if o.vel == nil {
		o.vel = make([][]float32, len(params))
		for i, p := range params {
			o.vel[i] = make([]float32, len(owned(p.W, p.shard)))
		}
	}
	if len(o.vel) != len(params) {
		panic("nn: SGD.Step called with a different parameter set")
	}
	lr, m, wd := o.LR, o.Momentum, o.WeightDecay
	for i, p := range params {
		W, v := owned(p.W, p.shard), o.vel[i]
		if len(v) != len(W) {
			panic("nn: SGD parameter size changed between steps")
		}
		G := owned(p.G, p.shard)[:len(W)]
		v = v[:len(W)]
		for j, w := range W {
			g := G[j] + wd*w
			v[j] = m*v[j] - lr*g
			W[j] = w + v[j]
		}
	}
	for _, p := range params {
		if p.shard != nil {
			p.shard.c.AllgatherInPlace(p.W)
		}
	}
}

// owned returns the part of x this rank updates: its chunk when sharded,
// all of x otherwise.
func owned(x []float32, s *paramShard) []float32 {
	if s == nil {
		return x
	}
	return x[s.lo:s.hi]
}
