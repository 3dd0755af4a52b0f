package sched

// JSQ is join-shortest-of-d-queues (power-of-d-choices): sample d distinct
// replicas, route to the least loaded of the eligible sampled ones (by
// in-flight plus reported occupancy). Sampling keeps the policy's state
// touch per decision O(d) instead of O(fleet) — the regime where a full
// least-loaded scan is too expensive or too stale (sharded front-ends,
// very large fleets) — while the d=2 choice already collapses the
// max-queue-imbalance from O(log n / log log n) to O(log log n).
//
// The d replicas are drawn without replacement by a partial Fisher–Yates
// shuffle of perm, a permutation of the replica indices sized in Reset, so
// Pick allocates nothing. When none of the d sampled replicas is eligible,
// Pick falls back to a full least-loaded scan rather than returning -1: the
// contract requires -1 only when no replica anywhere is eligible (a blind
// -1 could stall the production dispatcher even though capacity exists).
type JSQ struct {
	d    int
	rng  *Rand
	ll   LeastLoaded
	perm []int
}

// NewJSQ returns a JSQ(d) policy. d below 1 is treated as 2.
func NewJSQ(d int) *JSQ {
	if d < 1 {
		d = 2
	}
	return &JSQ{d: d, rng: NewRand(1)}
}

// Name implements Policy.
func (p *JSQ) Name() string {
	if p.d == 2 {
		return "jsq2"
	}
	if p.d == 3 {
		return "jsq3"
	}
	return "jsq-d"
}

// Reset implements Policy.
func (p *JSQ) Reset(n int, seed int64) {
	p.rng.Seed(seed ^ 0x6a73712d64) // "jsq-d" tag decorrelates from peers
	p.ll.Reset(n, seed)
	p.perm = make([]int, n)
	for i := range p.perm {
		p.perm[i] = i
	}
}

// Pick implements Policy. reps must hold the n replicas of the last Reset.
func (p *JSQ) Pick(now int64, b BatchView, reps []ReplicaView) int {
	n := len(reps)
	best := -1
	bestLoad := 0
	for i := 0; i < p.d && i < n; i++ {
		j := i + p.rng.Intn(n-i)
		p.perm[i], p.perm[j] = p.perm[j], p.perm[i]
		g := p.perm[i]
		rep := reps[g]
		if !rep.eligible() {
			continue
		}
		load := rep.InFlight + rep.Occ
		if best == -1 || load < bestLoad || (load == bestLoad && g < best) {
			best, bestLoad = g, load
		}
	}
	if best >= 0 {
		return best
	}
	return p.ll.Pick(now, b, reps)
}

// OnDispatch implements Policy.
func (p *JSQ) OnDispatch(g int, now int64, n int) { p.ll.OnDispatch(g, now, n) }

// Random routes uniformly at random among eligible replicas — the naive
// baseline every informed policy must beat; it brackets the scorecard from
// below like the ideal bound brackets it from above.
type Random struct {
	rng *Rand
}

// NewRandom returns the uniform-random baseline policy.
func NewRandom() *Random { return &Random{rng: NewRand(1)} }

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Reset implements Policy.
func (p *Random) Reset(n int, seed int64) { p.rng.Seed(seed ^ 0x72616e646f6d) }

// Pick implements Policy: reservoir-free two-pass uniform choice over the
// eligible set (count, then index), deterministic in the stream.
func (p *Random) Pick(now int64, b BatchView, reps []ReplicaView) int {
	eligible := 0
	for _, rep := range reps {
		if rep.eligible() {
			eligible++
		}
	}
	if eligible == 0 {
		return -1
	}
	k := p.rng.Intn(eligible)
	for g, rep := range reps {
		if !rep.eligible() {
			continue
		}
		if k == 0 {
			return g
		}
		k--
	}
	return -1
}

// OnDispatch implements Policy.
func (p *Random) OnDispatch(g int, now int64, n int) {}
