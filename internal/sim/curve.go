package sim

import "repro/internal/perfmodel"

// Curve tabulates a replica group's per-batch-size stage latencies in
// nanoseconds, indexed by batch size 1..MaxBatch. The simulator never
// calls the analytic model in its hot loop — curves are built once per
// fleet and looked up per batch.
type Curve struct {
	MaxBatch int
	Ranks    int
	Route    int64   // router submit -> wire, per batch
	Wire     []int64 // [n-1]: batch bytes front-end -> leader
	Compute  []int64 // [n-1]: forward pass at nominal (work factor 1) load
	Gather   []int64 // [n-1]: result bytes leader -> front-end
}

// CurveFromModel tabulates ServeStages for batch sizes 1..maxBatch.
// flops/bytes/kernels give the forward cost of a batch of n samples. A
// sharded group (ranks > 1) is priced at its live batch: each rank
// computes cost(n)/ranks, as the distributed executor computes only live
// rows, plus the group's input scatter and output gather collectives.
func CurveFromModel(m perfmodel.Machine, maxBatch, inLen, outLen, ranks int,
	cost func(batch int) (flops, bytes float64, kernels int)) *Curve {
	c := &Curve{
		MaxBatch: maxBatch,
		Ranks:    ranks,
		Wire:     make([]int64, maxBatch),
		Compute:  make([]int64, maxBatch),
		Gather:   make([]int64, maxBatch),
	}
	for n := 1; n <= maxBatch; n++ {
		f, b, k := cost(n)
		st := m.ServeStages(n, inLen, outLen, f/float64(ranks), b/float64(ranks), k, 0)
		c.Route = secToNs(st.Route)
		c.Wire[n-1] = secToNs(st.Wire)
		c.Gather[n-1] = secToNs(st.Gather)
		comp := st.Compute
		if ranks > 1 {
			// Scatter the inputs to the shard ranks, allgather the outputs.
			comp += m.SendRecv(4*float64(n*inLen), true) +
				m.Allgather(n*outLen, ranks, false)
		}
		c.Compute[n-1] = secToNs(comp)
	}
	return c
}

// UniformCurve is a synthetic curve for tests and abstract sweeps: a
// fixed per-batch overhead plus a linear per-sample cost, zero-cost wire
// and gather.
func UniformCurve(maxBatch int, base, perSample int64) *Curve {
	c := &Curve{
		MaxBatch: maxBatch,
		Ranks:    1,
		Wire:     make([]int64, maxBatch),
		Compute:  make([]int64, maxBatch),
		Gather:   make([]int64, maxBatch),
	}
	for n := 1; n <= maxBatch; n++ {
		c.Compute[n-1] = base + int64(n)*perSample
	}
	return c
}

// Scale multiplies every compute entry by f: the calibration knob that
// aligns the analytic curve with the measured `cmd/bench -exp obs`
// decomposition before a sweep.
func (c *Curve) Scale(f float64) *Curve {
	for i := range c.Compute {
		c.Compute[i] = int64(float64(c.Compute[i]) * f)
	}
	return c
}

// Service returns the stage latencies for a batch of n samples. Batches
// larger than MaxBatch are clamped (the batcher never forms them).
func (c *Curve) Service(n int) (wire, compute, gather int64) {
	if n < 1 {
		n = 1
	}
	if n > c.MaxBatch {
		n = c.MaxBatch
	}
	return c.Wire[n-1], c.Compute[n-1], c.Gather[n-1]
}

func secToNs(s float64) int64 {
	ns := int64(s * 1e9)
	if ns < 0 {
		return 0
	}
	return ns
}
