package sched

// Ideal is the omniscient lower-bound policy: it routes each batch to the
// replica with the least true remaining work — the quantity no real router
// can observe (heartbeats report queue *depths*, not the service time
// hiding inside them, and they lag). The simulator binds an Oracle that
// exposes exactly that, so Ideal's scorecard row is the load-balancing
// bound candidate policies are measured against: the gap between a policy
// and Ideal is routing error, the gap between Ideal and zero is queueing
// physics no router can remove.
//
// Without an Oracle (a production router can never bind one) Ideal
// degrades to least-loaded, so accidentally deploying it is safe but
// pointless.
type Ideal struct {
	ll     LeastLoaded
	oracle Oracle
}

// NewIdeal returns the omniscient ideal-LB bound policy.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements Policy.
func (p *Ideal) Name() string { return "ideal" }

// BindOracle implements OmniscientPolicy.
func (p *Ideal) BindOracle(o Oracle) { p.oracle = o }

// Reset implements Policy.
func (p *Ideal) Reset(n int, seed int64) { p.ll.Reset(n, seed) }

// Pick implements Policy: argmin of true remaining work over eligible
// replicas, ties broken by lowest index.
func (p *Ideal) Pick(now int64, b BatchView, reps []ReplicaView) int {
	if p.oracle == nil {
		return p.ll.Pick(now, b, reps)
	}
	best := -1
	var bestWork int64
	for g, rep := range reps {
		if !rep.eligible() {
			continue
		}
		w := p.oracle.RemainingWork(g)
		if best == -1 || w < bestWork {
			best, bestWork = g, w
		}
	}
	return best
}

// OnDispatch implements Policy.
func (p *Ideal) OnDispatch(g int, now int64, n int) { p.ll.OnDispatch(g, now, n) }
