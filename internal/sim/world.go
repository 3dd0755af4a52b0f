package sim

import (
	"errors"
	"fmt"

	"repro/internal/sched"
)

// Config describes one simulated serving fleet and workload cell.
type Config struct {
	Seed int64
	// Groups lists replica group sizes (ranks per group), like
	// serve.Config.Groups; Curves[i] is group i's latency curve.
	Groups []int
	Curves []*Curve
	// MaxBatch and BatchDeadline mirror serve.Config: a forming batch
	// flushes when it holds MaxBatch requests or BatchDeadline ns after
	// its first. BatchDeadline must be > 0 (the sim has no greedy mode:
	// arrivals are instants, so a zero deadline would never coalesce).
	MaxBatch      int
	BatchDeadline int64
	// QueueDepth is the per-replica in-flight cap (serve.QueueDepth).
	// Default 2.
	QueueDepth int
	// FrontEnds and AdmitNS model serve.Config.FrontEnds' sharded
	// admission: every arrival is parsed and admitted by one of FrontEnds
	// parallel front-end servers, each taking AdmitNS ns per request
	// (earliest-free front-end wins, FCFS). The admission ceiling is
	// FrontEnds/AdmitNS req/ns; past it, requests queue at admission and
	// burn their deadlines there. AdmitNS 0 (the default) makes admission
	// instantaneous and skips the stage entirely, so older configs replay
	// byte-identically. FrontEnds defaults to 1.
	FrontEnds int
	AdmitNS   int64
	// PendingBatches bounds flushed-but-undispatched batches (the
	// admission lane): while it is full, new arrivals are shed. Default
	// 4 * len(Groups).
	PendingBatches int
	// RetryBudget is how many re-dispatches a stranded batch gets
	// before its riders fail (serve.RetryBudget). Default 1.
	RetryBudget int
	// Policy routes batches. The world Resets it with the cell seed and
	// binds itself as the oracle if the policy is Omniscient.
	Policy  sched.Policy
	Traffic Traffic
	// Duration is how long arrivals flow (ns); the world then drains
	// everything in flight before Run returns.
	Duration int64
	Faults   *Faults
}

// simBatch is one coalesced batch moving through the world.
type simBatch struct {
	n        int
	arrive   []int64
	deadline []int64
	tenant   []int32
	sumWork  float64
	g        int    // current owner replica, -1 when queued/stranded
	epoch    uint32 // bumped on every dispatch and strand; stale events mismatch
	retries  int
	wire     int64
	gather   int64
	svcLeft  int64 // remaining compute ns at work-factor-1 speed
	occAtEnd int   // replica occupancy reported with the result
}

// simReplica is one replica group's server-side state.
type simReplica struct {
	g         int
	curve     *Curve
	epoch     uint32 // bumped on kill/rejoin; stale service events mismatch
	dead      bool   // serving stopped (killed)
	routable  bool   // router's view: false once quarantined
	inflight  int
	occ       int // last reported occupancy, router's view
	queue     []*simBatch
	cur       *simBatch
	curStart  int64
	curSpeed  float64
	served    int   // completed batches (drives killAfter)
	workLeft  int64 // oracle: committed compute ns not yet executed
	killAfter int
	slow      SlowSpec
}

func (r *simReplica) speedAt(now int64) float64 {
	if r.slow.Factor > 1 && now >= r.slow.At {
		return r.slow.Factor
	}
	return 1
}

// World is one deterministic simulation run.
type World struct {
	cfg     Config
	pol     sched.Policy
	heap    eventHeap
	now     int64
	endAt   int64
	gen     *trafficGen
	nextReq arrival // request whose evArrival is on the heap
	faultRG *rng    // batch-drop draws, separate stream from traffic
	feFree  []int64 // admission stage: instant each front-end frees up (nil when AdmitNS 0)
	feRR    int     // rotating tie-break start for idle front-ends
	reps    []*simReplica
	live    int
	views   []sched.ReplicaView
	forming *simBatch
	flushEp uint32
	dq      []*simBatch // flushed, waiting for a replica
	pending []*simBatch // dispatched, result not yet back (retry table)
	free    []*simBatch
	acc     accum
}

// NewWorld validates cfg and builds a ready-to-run world.
func NewWorld(cfg Config) (*World, error) {
	if len(cfg.Groups) == 0 || len(cfg.Curves) != len(cfg.Groups) {
		return nil, errors.New("sim: need one Curve per Group")
	}
	if cfg.MaxBatch < 1 || cfg.BatchDeadline <= 0 {
		return nil, errors.New("sim: MaxBatch >= 1 and BatchDeadline > 0 required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("sim: Policy required")
	}
	if cfg.Traffic.Rate <= 0 {
		return nil, errors.New("sim: Traffic.Rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("sim: Duration must be > 0")
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 2
	}
	if cfg.PendingBatches < 1 {
		cfg.PendingBatches = 4 * len(cfg.Groups)
	}
	if cfg.RetryBudget < 1 {
		cfg.RetryBudget = 1
	}
	if cfg.FrontEnds < 1 {
		cfg.FrontEnds = 1
	}
	if cfg.AdmitNS < 0 {
		return nil, errors.New("sim: AdmitNS must be >= 0")
	}
	w := &World{
		cfg:     cfg,
		pol:     cfg.Policy,
		gen:     newTrafficGen(cfg.Traffic, uint64(cfg.Seed)),
		faultRG: newRNG(uint64(cfg.Seed) ^ 0x6661756c74),
		endAt:   cfg.Duration,
		views:   make([]sched.ReplicaView, len(cfg.Groups)),
	}
	kills := cfg.Faults.killAfter(cfg.Groups)
	for g := range cfg.Groups {
		w.reps = append(w.reps, &simReplica{
			g:         g,
			curve:     cfg.Curves[g],
			routable:  true,
			killAfter: kills[g],
			slow:      cfg.Faults.slowFor(g),
		})
	}
	if cfg.AdmitNS > 0 {
		w.feFree = make([]int64, cfg.FrontEnds)
	}
	w.live = len(w.reps)
	w.pol.Reset(len(w.reps), cfg.Seed)
	if o, ok := w.pol.(sched.OmniscientPolicy); ok {
		o.BindOracle(w)
	}
	w.acc.init(cfg.Traffic.Tenants)
	return w, nil
}

// RemainingWork implements sched.Oracle: the true committed compute ns
// still ahead of replica g, with the in-service batch's progress
// subtracted and straggler slowdown reflected.
func (w *World) RemainingWork(g int) int64 {
	rep := w.reps[g]
	left := rep.workLeft
	if rep.cur != nil {
		left -= int64(float64(w.now-rep.curStart) / rep.curSpeed)
	}
	if left < 0 {
		left = 0
	}
	return int64(float64(left) * rep.speedAt(w.now))
}

// Run drives the event loop until the world drains and returns the
// accumulated metrics. A world is single-use.
func (w *World) Run() *accum {
	dt, a := w.gen.next(0)
	w.nextReq = a
	w.heap.push(event{at: dt, kind: evArrival})
	for w.heap.len() > 0 {
		e := w.heap.pop()
		w.now = e.at
		switch e.kind {
		case evArrival:
			w.onArrival()
		case evAdmit:
			w.joinBatch(e.req, e.reqAt)
		case evFlush:
			if w.forming != nil && e.epoch == w.flushEp {
				w.flushForming()
				w.pump()
			}
		case evBatchArrive:
			w.onBatchArrive(e)
		case evServiceDone:
			w.onServiceDone(e)
		case evResultArrive:
			w.onResultArrive(e)
		case evLost:
			w.onBatchLost(e)
		case evDetect:
			w.onDetect(e)
		case evRejoin:
			w.onRejoin(e)
		}
	}
	w.acc.simEnd = w.now
	return &w.acc
}

func (w *World) onArrival() {
	a := w.nextReq
	w.acc.offered++
	if int(a.tenant) < len(w.acc.tenantOffered) {
		w.acc.tenantOffered[a.tenant]++
	}
	if w.feFree != nil {
		// Admission stage armed: the request occupies the earliest-free
		// front-end for AdmitNS before it can touch a batch. Past the
		// FrontEnds/AdmitNS ceiling, requests queue FCFS at admission and
		// burn their deadline budget there.
		fe := w.pickFE()
		start := w.feFree[fe]
		if start < w.now {
			start = w.now
		}
		w.feFree[fe] = start + w.cfg.AdmitNS
		w.heap.push(event{at: w.feFree[fe], kind: evAdmit, req: a, reqAt: w.now})
	} else {
		w.joinBatch(a, w.now)
	}
	if w.now < w.endAt {
		dt, next := w.gen.next(w.now)
		w.nextReq = next
		w.heap.push(event{at: w.now + dt, kind: evArrival})
	}
}

// pickFE returns the earliest-free front-end, rotating the scan start so
// ties among idle front-ends spread round-robin instead of piling on 0.
func (w *World) pickFE() int {
	n := len(w.feFree)
	best := w.feRR % n
	for i := 1; i < n; i++ {
		c := (w.feRR + i) % n
		if w.feFree[c] < w.feFree[best] {
			best = c
		}
	}
	w.feRR++
	return best
}

// joinBatch is the admitted half of an arrival: a full dispatch lane sheds
// the request (the open-loop analogue of production's reject-at-the-socket
// backpressure), otherwise it rides the forming batch. arriveAt is the
// request's original arrival instant, so admission queueing counts toward
// its latency and its deadline keeps running while it waits.
func (w *World) joinBatch(a arrival, arriveAt int64) {
	if len(w.dq) >= w.cfg.PendingBatches {
		w.acc.shedFull++
		return
	}
	if w.forming == nil {
		w.forming = w.getBatch()
		w.flushEp++
		w.heap.push(event{at: w.now + w.cfg.BatchDeadline, kind: evFlush, epoch: w.flushEp})
	}
	b := w.forming
	b.n++
	b.arrive = append(b.arrive, arriveAt)
	b.deadline = append(b.deadline, a.deadline)
	b.tenant = append(b.tenant, a.tenant)
	b.sumWork += a.work
	if b.n >= w.cfg.MaxBatch {
		w.flushForming()
		w.pump()
	}
}

func (w *World) flushForming() {
	b := w.forming
	w.forming = nil
	w.flushEp++
	// Shed riders whose deadline already passed while the batch formed,
	// like the batcher's expiry sweep.
	kept := 0
	for i := 0; i < b.n; i++ {
		if b.deadline[i] != 0 && b.deadline[i] <= w.now {
			w.acc.shedExpired++
			continue
		}
		b.arrive[kept] = b.arrive[i]
		b.deadline[kept] = b.deadline[i]
		b.tenant[kept] = b.tenant[i]
		kept++
	}
	if kept == 0 {
		w.putBatch(b)
		return
	}
	b.n = kept
	b.arrive = b.arrive[:kept]
	b.deadline = b.deadline[:kept]
	b.tenant = b.tenant[:kept]
	w.dq = append(w.dq, b)
	w.acc.batches++
}

func (w *World) refreshViews() {
	for g, rep := range w.reps {
		w.views[g] = sched.ReplicaView{
			Live:     rep.routable,
			InFlight: rep.inflight,
			Cap:      w.cfg.QueueDepth,
			Occ:      rep.occ,
		}
	}
}

// pump dispatches queued batches in FIFO order while the policy finds
// capacity.
func (w *World) pump() {
	for len(w.dq) > 0 {
		if w.live == 0 {
			// No replica will ever take these (matches submit failing
			// fast when the routing set is empty).
			for _, b := range w.dq {
				w.failBatch(b)
			}
			w.dq = w.dq[:0]
			return
		}
		b := w.dq[0]
		w.refreshViews()
		g := w.pol.Pick(w.now, sched.BatchView{N: b.n}, w.views)
		if g < 0 {
			return // no capacity; a result or rejoin will re-pump
		}
		copy(w.dq, w.dq[1:])
		w.dq = w.dq[:len(w.dq)-1]
		w.dispatch(b, g)
	}
}

func (w *World) dispatch(b *simBatch, g int) {
	rep := w.reps[g]
	wire, comp, gather := rep.curve.Service(b.n)
	if b.svcLeft == 0 {
		// Fresh dispatch (retries re-run the full forward on the new
		// replica): compute scales with the batch's mean work factor.
		b.svcLeft = int64(float64(comp) * b.sumWork / float64(b.n))
		if b.svcLeft < 1 {
			b.svcLeft = 1
		}
		b.wire, b.gather = wire, gather
	}
	b.g = g
	b.epoch++
	rep.inflight++
	rep.workLeft += b.svcLeft
	w.pending = append(w.pending, b)
	w.pol.OnDispatch(g, w.now, b.n)
	w.acc.dispatches++
	if p := w.cfg.Faults.dropProb(); p > 0 && w.faultRG.float64() < p {
		// Wire loss: the batch never arrives; batch-timeout detection
		// strands it DetectDelay later.
		w.heap.push(event{at: w.now + w.cfg.Faults.detectDelay(), kind: evLost, g: g, b: b, epoch: b.epoch})
		return
	}
	w.heap.push(event{at: w.now + b.wire, kind: evBatchArrive, g: g, b: b, epoch: b.epoch})
}

func (w *World) onBatchArrive(e event) {
	b := e.b
	if b.epoch != e.epoch {
		return // stranded while on the wire
	}
	rep := w.reps[e.g]
	if rep.dead {
		// Lands on a dead replica: stays in the pending table until the
		// detect event sweeps this group's batches onto the retry path.
		return
	}
	rep.queue = append(rep.queue, b)
	if rep.cur != nil && len(rep.queue) > 1 {
		// Leader-side backlog heartbeat, like leaderLoop's queue>1
		// report riding tagHB.
		rep.occ = len(rep.queue)
	}
	w.startService(rep)
}

func (w *World) startService(rep *simReplica) {
	if rep.cur != nil || rep.dead || len(rep.queue) == 0 {
		return
	}
	b := rep.queue[0]
	copy(rep.queue, rep.queue[1:])
	rep.queue = rep.queue[:len(rep.queue)-1]
	rep.cur = b
	rep.curStart = w.now
	rep.curSpeed = rep.speedAt(w.now)
	w.heap.push(event{at: w.now + int64(float64(b.svcLeft)*rep.curSpeed), kind: evServiceDone, g: rep.g, epoch: rep.epoch})
}

func (w *World) onServiceDone(e event) {
	rep := w.reps[e.g]
	if rep.epoch != e.epoch || rep.cur == nil {
		return // killed mid-service
	}
	b := rep.cur
	rep.cur = nil
	rep.workLeft -= b.svcLeft
	b.svcLeft = 0
	rep.served++
	if rep.killAfter > 0 && rep.served >= rep.killAfter {
		// comm.FaultPlan.Kill: the group dies fail-stop at this result
		// send — the result is lost with it.
		w.killGroup(rep)
		return
	}
	b.occAtEnd = len(rep.queue)
	w.heap.push(event{at: w.now + b.gather, kind: evResultArrive, g: rep.g, b: b, epoch: b.epoch})
	w.startService(rep)
}

func (w *World) onResultArrive(e event) {
	b := e.b
	if b.epoch != e.epoch {
		return
	}
	rep := w.reps[e.g]
	rep.inflight--
	rep.workLeft -= b.svcLeft // svcLeft is 0 here; keep the invariant obvious
	rep.occ = b.occAtEnd
	w.removePending(b)
	for i := 0; i < b.n; i++ {
		w.acc.record(w.now - b.arrive[i])
		w.acc.served++
		if b.deadline[i] != 0 && w.now > b.deadline[i] {
			w.acc.lateServed++
		}
		if t := b.tenant[i]; int(t) < len(w.acc.tenantServed) {
			w.acc.tenantServed[t]++
		}
	}
	if b.retries > 0 {
		w.acc.recovered++
	}
	w.putBatch(b)
	w.pump()
}

// killGroup marks a replica group dead and schedules its detection. The
// router keeps routing to it until the detector notices — exactly the
// production window where batches strand.
func (w *World) killGroup(rep *simReplica) {
	rep.dead = true
	rep.epoch++
	rep.cur = nil
	rep.queue = rep.queue[:0]
	rep.killAfter = 0
	w.acc.kills++
	w.heap.push(event{at: w.now + w.cfg.Faults.detectDelay(), kind: evDetect, g: rep.g, epoch: rep.epoch})
}

// onDetect is the monitor noticing a dead group: quarantine it, strand
// every batch it owns onto the retry path, and arm the rejoin timer.
func (w *World) onDetect(e event) {
	rep := w.reps[e.g]
	if rep.epoch != e.epoch || !rep.dead {
		return
	}
	rep.routable = false
	rep.inflight = 0
	rep.occ = 0
	rep.workLeft = 0
	w.live--
	w.acc.detections++
	stranded := w.strandOwned(e.g)
	// Retries jump the dispatch lane in strand order, like the retry
	// queue draining ahead of blocked submits.
	var retried []*simBatch
	for _, b := range stranded {
		b.epoch++ // invalidate in-flight wire/gather events
		b.retries++
		b.g = -1
		b.svcLeft = 0 // the retry re-runs the forward on the new owner
		if b.retries > w.cfg.RetryBudget {
			w.failBatch(b)
			continue
		}
		w.acc.retries++
		retried = append(retried, b)
	}
	if len(retried) > 0 {
		w.dq = append(retried, w.dq...)
	}
	if ra := w.cfg.Faults.rejoinAfter(); ra >= 0 {
		w.heap.push(event{at: w.now + ra, kind: evRejoin, g: e.g, epoch: rep.epoch})
	}
	w.pump()
}

// strandOwned removes and returns every pending batch addressed to g.
func (w *World) strandOwned(g int) []*simBatch {
	var out []*simBatch
	kept := w.pending[:0]
	for _, b := range w.pending {
		if b.g == g {
			out = append(out, b)
		} else {
			kept = append(kept, b)
		}
	}
	w.pending = kept
	return out
}

func (w *World) onRejoin(e event) {
	rep := w.reps[e.g]
	if rep.epoch != e.epoch || !rep.dead {
		return
	}
	rep.dead = false
	rep.routable = true
	rep.epoch++
	rep.inflight = 0
	rep.occ = 0
	rep.workLeft = 0
	rep.served = 0
	w.live++
	w.acc.rejoins++
	w.pump()
}

// onBatchLost: a dropped batch message caught by batch-timeout detection.
func (w *World) onBatchLost(e event) {
	b := e.b
	if b.epoch != e.epoch {
		return // the whole replica died first; the detect sweep took it
	}
	rep := w.reps[e.g]
	rep.inflight--
	rep.workLeft -= b.svcLeft
	if rep.workLeft < 0 {
		rep.workLeft = 0
	}
	w.removePending(b)
	b.epoch++
	b.retries++
	b.g = -1
	b.svcLeft = 0
	if b.retries > w.cfg.RetryBudget {
		w.failBatch(b)
	} else {
		w.acc.retries++
		w.dq = append([]*simBatch{b}, w.dq...)
	}
	w.pump()
}

func (w *World) removePending(b *simBatch) {
	for i, p := range w.pending {
		if p == b {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			return
		}
	}
}

func (w *World) failBatch(b *simBatch) {
	w.acc.failed += uint64(b.n)
	w.putBatch(b)
}

func (w *World) getBatch() *simBatch {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		return b
	}
	return &simBatch{g: -1}
}

// putBatch recycles a batch. Its epoch is deliberately NOT reset: epochs
// only grow, so events referencing a previous life can never match.
func (w *World) putBatch(b *simBatch) {
	b.n = 0
	b.arrive = b.arrive[:0]
	b.deadline = b.deadline[:0]
	b.tenant = b.tenant[:0]
	b.sumWork = 0
	b.g = -1
	b.retries = 0
	b.svcLeft = 0
	b.wire, b.gather = 0, 0
	w.free = append(w.free, b)
}

func (w *World) String() string {
	return fmt.Sprintf("sim.World{groups=%d policy=%s}", len(w.reps), w.pol.Name())
}
