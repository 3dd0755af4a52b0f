package sched

// LeastLoaded is the production default policy: route to the live replica
// with the fewest dispatcher-side in-flight batches, tie-broken by the
// replica's occupancy heartbeat, with a round-robin rotation cursor so
// fully-tied (idle) replicas share load evenly. The cursor advances in
// OnDispatch — once per batch actually dispatched — which makes the
// rotation deterministic: Pick is pure, and retries rotate exactly like
// first dispatches regardless of which code path asked.
type LeastLoaded struct {
	rot int
	n   int
}

// NewLeastLoaded returns the least-loaded policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "least-loaded" }

// Reset implements Policy.
func (p *LeastLoaded) Reset(n int, seed int64) { p.n, p.rot = n, 0 }

// Pick implements Policy: lowest in-flight first, occupancy heartbeat as
// the tie-break, scan started at the rotation cursor.
func (p *LeastLoaded) Pick(now int64, b BatchView, reps []ReplicaView) int {
	n := len(reps)
	best := -1
	for i := 0; i < n; i++ {
		g := (p.rot + i) % n
		rep := reps[g]
		if !rep.eligible() {
			continue
		}
		if best == -1 {
			best = g
			continue
		}
		bv := reps[best]
		if rep.InFlight < bv.InFlight ||
			(rep.InFlight == bv.InFlight && rep.Occ < bv.Occ) {
			best = g
		}
	}
	return best
}

// OnDispatch implements Policy: advance the rotation cursor past the
// replica that just took a batch.
func (p *LeastLoaded) OnDispatch(g int, now int64, n int) {
	if p.n > 0 {
		p.rot = (g + 1) % p.n
	}
}
