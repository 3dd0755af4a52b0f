package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Wire protocol between the front-end ranks and replica group leaders, all
// point-to-point on the world communicator (user tag space):
//
//	tagBatch  front-end -> leader   [slot, seq, n, sentHi, sentLo, n*inLen rows]
//	                                slot -1: stop sentinel; slot -2: health probe
//	tagResult leader -> front-end   [slot, seq, n, occ, wireUS, computeUS,
//	                                 n*outLen rows]; slot < 0: goodbye
//
// sentHi/sentLo carry the dispatch time as microseconds since the server's
// epoch, split hi = us>>20, lo = us&(2^20-1) so both halves stay exact in a
// float32 (24-bit mantissa) for over two centuries of uptime. The leader —
// same process, same clock — prices the wire stage against it and reports
// wireUS (send -> dequeue) and computeUS (executor forward) back in the
// result header, feeding the latency-decomposition histograms and the
// flight recorder without any extra messages.
//
//	tagHB     leader -> front-end   [queueDepth]; < 0: goodbye
//
// With FrontEnds > 1 the same protocol runs fan-in/fan-out: a leader
// receives batches from every front-end rank (comm.RecvMultiTimeout), each
// result is answered to the front-end that submitted the batch, and every
// heartbeat is fanned to all front-end ranks — that fan-out is the only
// cross-front-end coherence mechanism (each front-end sees the same
// replica-wide occupancy), the in-flight budgets being statically
// partitioned. A leader stops only after collecting one stop sentinel from
// every front-end, and says goodbye (result and heartbeat) to each.
//
// Slots index a front-end router's pending table; (front-end, slot) is
// unique among in-flight batches (a slot is recycled only after its result
// returns or the batch is failed), and results return to the submitting
// front-end so slots from different front-ends never meet. seq is a
// monotonically increasing 24-bit submission number — exact in a float32 —
// re-minted every time a batch is (re)dispatched, so a result is accepted
// only if it answers the slot's *current* submission: that is the
// at-most-once delivery guard against late results from a quarantined
// replica and against fault-injected message duplication. Batch payloads,
// results, and heartbeats all stage through the comm message pool, so the
// warm serving path crosses the wire with zero heap allocations.
//
// Occupancy heartbeats ride two channels: every result carries the
// replica's post-batch queue depth, and a standalone tagHB message fires
// when a dequeue finds a backlog (depth > 1), on every idle receive
// timeout (the liveness signal failure detection keys on), once at serving
// start (hello), and in answer to a health probe.
const (
	tagBatch = iota + 1
	tagResult
	tagHB
)

// batchHdr and resultHdr are the float32 header lengths of tagBatch and
// tagResult messages.
const (
	batchHdr  = 5
	resultHdr = 6
)

// tagBatch control sentinels (in place of a slot index).
const (
	stopSentinel  = -1
	probeSentinel = -2
)

// repLife is a replica's liveness state in the router.
type repLife int32

const (
	// repLive: routable; receives batches.
	repLive repLife = iota
	// repQuarantined: failure detected; its ranks are fenced off
	// (comm.World.Fail) and its stranded batches re-routed.
	repQuarantined
	// repRejoining: a fresh incarnation of its rank goroutines is starting
	// or being health-probed; routable again once a probe answer arrives.
	repRejoining
)

func (l repLife) String() string {
	switch l {
	case repQuarantined:
		return "quarantined"
	case repRejoining:
		return "rejoining"
	default:
		return "live"
	}
}

// fleet owns the communication world: ranks 0..FrontEnds-1 are front-ends
// (each a router + collectors; the failure monitor runs once, fleet-wide),
// the remaining ranks are replica ranks, grouped per Config.Groups with the
// group leader on the group's first world rank. Sharded groups run a
// placement-sharded nn.DistInferNet collectively; single-rank groups run an
// nn.InferNet clone.
type fleet struct {
	world      *comm.World
	reps       []*repState    // shared across every front-end's router
	probeC     *comm.Comm     // monitor's send handle (front-end rank 0)
	repWG      sync.WaitGroup // replica rank goroutines, every incarnation
	groups     []*groupRuntime
	ck         *nn.Checkpoint // captured state sharded groups restore from on rejoin
	respawning atomic.Int32   // replica respawns in flight
}

// groupRuntime is the supervisor-side record of one replica group: enough
// state to join a dead incarnation's goroutines and spawn a fresh one.
type groupRuntime struct {
	id      int
	ranks   []int // world ranks, leader first
	members []memberState
	wg      *sync.WaitGroup // current incarnation's goroutines
}

// memberState is one member rank's communication handles and executor,
// recorded by the first incarnation and reused by respawns (weights for
// single-rank replicas are immutable and shared; sharded members re-slice
// theirs from the fleet checkpoint on rejoin).
type memberState struct {
	c     *comm.Comm // world communicator handle
	group *comm.Comm
	ex    executor         // leader only
	dnet  *nn.DistInferNet // sharded members only
}

// liveCount reports how many replicas are currently routable.
func (f *fleet) liveCount() (live, total int) {
	for _, rep := range f.reps {
		total++
		if repLife(rep.life.Load()) == repLive {
			live++
		}
	}
	return live, total
}

// repState is one replica's record, shared by every front-end's router:
// everything on it is atomic (per-front-end in-flight counts live in the
// routers, under their own locks), so no cross-front-end lock exists.
type repState struct {
	leader  int   // world rank of the group leader
	members []int // world ranks of the whole group
	ranks   int
	occ     atomic.Int32 // last heartbeat: batches queued/executing replica-side
	batches atomic.Uint64
	life    atomic.Int32 // repLife; transitions are the monitor's alone
	// lastHeard is the UnixNano of the last result or heartbeat seen by any
	// front-end; the monitor's silence detector and the rejoin probe ack
	// both key on it.
	lastHeard atomic.Int64
	// quarantinedAt / probeStart are UnixNano timestamps owned by the
	// monitor and the respawn goroutine: when the quarantine began, and
	// when the rejoin incarnation's goroutines were (re)spawned (0 while
	// the respawn is still pending).
	quarantinedAt atomic.Int64
	probeStart    atomic.Int64
}

// newRepSet builds the shared replica records for a fleet whose replica
// ranks start at world rank frontEnds (group leaders first-rank-of-group).
func newRepSet(groups []int, frontEnds int) []*repState {
	reps := make([]*repState, 0, len(groups))
	rank := frontEnds
	for _, ranks := range groups {
		reps = append(reps, &repState{leader: rank, ranks: ranks})
		rank += ranks
	}
	return reps
}

// pendingEntry is one in-flight batch in a router's slot table. g is the
// replica currently responsible; -1 marks a stranded batch queued for
// re-dispatch after its replica was quarantined.
type pendingEntry struct {
	b       *batch
	seq     uint32
	g       int
	lastG   int // previous owner, to count failovers
	retries int
	sentAt  int64 // UnixNano of the last dispatch
}

// router assigns one front-end's flushed batches to live replica leaders
// through a pluggable sched.Policy (Config.Policy; default
// sched.LeastLoaded, the shipped production policy: lowest in-flight
// hard-capped at the per-front-end QueueDepth share, tie-broken by
// occupancy heartbeat, deterministic round-robin rotation). The router owns
// the mechanism — slots, seq minting, retry queue, the in-flight caps —
// and the policy owns only the choice: it sees each replica's liveness,
// this front-end's in-flight count, cap, and last heartbeat through
// sched.ReplicaView, and is notified of dispatches, results, and
// heartbeats. The same policy implementations run in internal/sim's
// deterministic fleet simulator, which is where they are raced and chosen.
//
// With several front-ends each runs its own router over the shared repState
// records: replica liveness and occupancy are read atomically from the
// shared records, while in-flight counts, slots, and policy state stay
// per-front-end under the router's own lock — no lock is ever shared
// between front-ends.
//
// Submission blocks only while some live replica exists but all are at
// their cap; with zero live replicas it fails fast so admission sheds
// instead of queueing into a hole. Quarantine (the monitor's strand call)
// strands a replica's pending slots onto the retry queue, which drains into
// surviving replicas as capacity frees (each re-dispatch under the batch's
// retry budget and with a fresh seq for at-most-once delivery).
type router struct {
	c      *comm.Comm // this front-end's world handle (mailbox traffic is goroutine-safe)
	srv    *Server
	fe     *frontEnd
	stats  *statsCollector
	qd     int // per-front-end in-flight cap per replica
	budget int

	mu        sync.Mutex
	cond      *sync.Cond
	pol       sched.Policy
	views     []sched.ReplicaView // scratch for Pick, reused per call
	reps      []*repState         // shared fleet records (see newRepSet)
	inflight  []int               // this front-end's batches in flight per replica
	pending   []pendingEntry
	freeSlots []int
	retryQ    []int // slots stranded by quarantine, awaiting re-dispatch
	nextSeq   uint32
	live      int // replicas in repLive
	stopped   bool
}

func newRouter(c *comm.Comm, reps []*repState, qd int, srv *Server, fe *frontEnd) *router {
	rt := &router{c: c, srv: srv, fe: fe, qd: qd, reps: reps, live: len(reps)}
	rt.cond = sync.NewCond(&rt.mu)
	if srv != nil {
		rt.budget = srv.cfg.RetryBudget
		if fe == nil || fe.id == 0 {
			// Config.Policy is a single instance: it serves front-end 0;
			// additional front-ends get fresh instances of the default.
			rt.pol = srv.cfg.Policy
		}
	}
	switch {
	case fe != nil:
		rt.stats = fe.stats
	case srv != nil:
		rt.stats = srv.stats
	default:
		rt.stats = newStatsCollector(1) // bare unit-test router
	}
	if rt.pol == nil {
		// The shipped default: whatever policy the fleet-scheduler lab
		// last promoted (see sched.Production and cmd/sim).
		rt.pol, _ = sched.New(sched.Production)
	}
	rt.pol.Reset(len(reps), 1)
	rt.views = make([]sched.ReplicaView, len(reps))
	rt.inflight = make([]int, len(reps))
	slots := len(reps) * qd
	rt.pending = make([]pendingEntry, slots)
	rt.freeSlots = make([]int, slots)
	for i := range rt.freeSlots {
		rt.freeSlots[i] = slots - 1 - i // pop low slots first (cosmetic)
	}
	return rt
}

// seqLocked mints the next submission number; 24 bits keep it exact in the
// float32 wire encoding, and 0 is reserved for control messages.
func (rt *router) seqLocked() uint32 {
	rt.nextSeq = (rt.nextSeq + 1) & (1<<24 - 1)
	if rt.nextSeq == 0 {
		rt.nextSeq = 1
	}
	return rt.nextSeq
}

// pick snapshots the fleet into the policy's view and asks it for the
// replica to route bv to, or -1 when nothing is eligible. Caller holds
// rt.mu; the policy's own state is guarded by the same lock.
func (rt *router) pick(bv sched.BatchView) int {
	for g, rep := range rt.reps {
		rt.views[g] = sched.ReplicaView{
			Live:     repLife(rep.life.Load()) == repLive,
			InFlight: rt.inflight[g],
			Cap:      rt.qd,
			Occ:      int(rep.occ.Load()),
		}
	}
	return rt.pol.Pick(time.Now().UnixNano(), bv, rt.views)
}

// sendLocked ships slot's batch to replica g's leader. Caller holds rt.mu;
// mailbox puts never take the router lock, so sending under it is safe.
func (rt *router) sendLocked(g, slot int) {
	e := &rt.pending[slot]
	inLen := rt.srv.inLen
	msg := comm.GetBuf(batchHdr + e.b.n*inLen)
	msg[0] = float32(slot)
	msg[1] = float32(e.seq)
	msg[2] = float32(e.b.n)
	sentUS := (time.Now().UnixNano() - rt.srv.epochNs) / 1000
	msg[3] = float32(sentUS >> 20)
	msg[4] = float32(sentUS & (1<<20 - 1))
	copy(msg[batchHdr:], (*e.b.buf)[:e.b.n*inLen])
	rt.c.SetTraceID(uint64(e.seq))
	rt.c.SendNoCopy(rt.reps[g].leader, tagBatch, msg)
}

// submit routes b to the policy's choice of live replica, blocking while
// every live replica is at this front-end's in-flight cap. It reports false
// — without taking the batch — when no live replica exists; the caller
// fails the batch. Called from this front-end's batcher goroutine.
func (rt *router) submit(b *batch) bool {
	t0 := time.Now()
	bv := sched.BatchView{N: b.n}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if rt.live == 0 {
			return false
		}
		if g := rt.pick(bv); g >= 0 {
			slot := rt.freeSlots[len(rt.freeSlots)-1]
			rt.freeSlots = rt.freeSlots[:len(rt.freeSlots)-1]
			seq := rt.seqLocked()
			now := time.Now().UnixNano()
			rt.pending[slot] = pendingEntry{
				b: b, seq: seq, g: g, lastG: g,
				sentAt: now,
			}
			rt.inflight[g]++
			rt.pol.OnDispatch(g, now, b.n)
			rt.sendLocked(g, slot)
			rt.srv.recordDispatch(rt.fe, b, seq, t0)
			return true
		}
		rt.cond.Wait()
	}
}

// recordDispatch feeds the latency decomposition and the flight recorder
// at the moment a batch hits the wire: batch-wait and route stage
// histograms (always on), plus — only while tracing — admission spans for
// every rider, the batch-formation span, and the route span, all on the
// submitting front-end's track (its world rank), correlated by seq.
func (s *Server) recordDispatch(fe *frontEnd, b *batch, seq uint32, routeStart time.Time) {
	now := time.Now()
	fe.stats.recordStage(stgBatchWait, now.Sub(time.Unix(0, b.openedAt)))
	fe.stats.recordStage(stgRoute, now.Sub(routeStart))
	if !obs.Enabled() {
		return
	}
	nowNs := now.UnixNano()
	r0 := obs.RingFor(fe.id)
	for i := 0; i < b.n; i++ {
		r0.RecordSpan(obs.StageAdmission, 0, uint64(seq), b.reqs[i].start.UnixNano(), nowNs, int64(b.n))
	}
	r0.RecordSpan(obs.StageBatch, 0, uint64(seq), b.openedAt, nowNs, int64(b.n))
	r0.RecordSpan(obs.StageRoute, 0, uint64(seq), routeStart.UnixNano(), nowNs, int64(b.n))
}

// claim hands the collector the batch answered by (slot, seq), freeing the
// slot, or nil when the result is stale: the slot was already answered,
// failed, or re-dispatched under a fresh seq (at-most-once delivery).
// sentAt is the accepted batch's last dispatch time (UnixNano), so the
// collector can split the round trip into wire/compute/gather.
func (rt *router) claim(slot int, seq uint32) (b *batch, sentAt int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if slot < 0 || slot >= len(rt.pending) {
		return nil, 0
	}
	e := &rt.pending[slot]
	if e.b == nil || e.seq != seq {
		return nil, 0
	}
	b, sentAt = e.b, e.sentAt
	if e.g >= 0 {
		rt.inflight[e.g]--
	} else {
		// Stranded awaiting retry, but the old replica's answer made it out
		// before the kill: accept it and cancel the pending re-dispatch.
		for i, s := range rt.retryQ {
			if s == slot {
				rt.retryQ = append(rt.retryQ[:i], rt.retryQ[i+1:]...)
				break
			}
		}
	}
	e.b = nil
	rt.freeSlots = append(rt.freeSlots, slot)
	rt.dispatchRetriesLocked(time.Now().UnixNano())
	rt.cond.Signal()
	return b, sentAt
}

// strand removes replica g from this router's live set and strands its
// in-flight slots onto the retry queue. Called by the monitor after it
// stored the quarantine transition on the shared repState (so pick already
// sees the replica dead) and before it kills the group's world ranks.
func (rt *router) strand(g int, now int64) {
	rt.mu.Lock()
	rt.live--
	rt.inflight[g] = 0
	for slot := range rt.pending {
		e := &rt.pending[slot]
		if e.b != nil && e.g == g {
			e.g = -1
			rt.retryQ = append(rt.retryQ, slot)
		}
	}
	rt.dispatchRetriesLocked(now)
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// rejoined re-admits replica g to this router's live set after the monitor
// confirmed the new incarnation's probe answer.
func (rt *router) rejoined(g int, now int64) {
	rt.mu.Lock()
	rt.live++
	rt.inflight[g] = 0
	rt.dispatchRetriesLocked(now)
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// dispatchRetriesLocked drains the retry queue into live replicas with
// headroom. A batch whose retry budget is exhausted — or stranded with no
// live replica left — is failed so its callers never hang.
func (rt *router) dispatchRetriesLocked(now int64) {
	for len(rt.retryQ) > 0 {
		slot := rt.retryQ[0]
		e := &rt.pending[slot]
		if rt.live == 0 || e.retries >= rt.budget {
			rt.retryQ = rt.retryQ[1:]
			b := e.b
			e.b = nil
			rt.freeSlots = append(rt.freeSlots, slot)
			err := ErrFailed
			if rt.live == 0 {
				err = ErrUnavailable
			}
			rt.srv.failBatch(b, err)
			rt.cond.Signal()
			continue
		}
		g := rt.pick(sched.BatchView{N: e.b.n})
		if g < 0 {
			return // no headroom; resume when a slot frees or a replica rejoins
		}
		rt.retryQ = rt.retryQ[1:]
		e.retries++
		e.seq = rt.seqLocked()
		if g != e.lastG {
			rt.stats.failovers.Add(1)
		}
		e.lastG = g
		e.g = g
		e.sentAt = now
		rt.inflight[g]++
		rt.pol.OnDispatch(g, now, e.b.n)
		rt.stats.retries.Add(1)
		rt.sendLocked(g, slot)
	}
}

// drainedLocked reports whether every slot is free: nothing in flight,
// nothing stranded. Caller holds rt.mu.
func (rt *router) drainedLocked() bool {
	return len(rt.freeSlots) == len(rt.pending)
}

func (rt *router) drained() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.drainedLocked()
}

// probe sends replica g's leader a health probe from the monitor's handle
// (front-end rank 0); a live leader answers with a heartbeat fanned to
// every front-end, which is the rejoin acknowledgement.
func (f *fleet) probe(g int) {
	msg := comm.GetBuf(batchHdr)
	msg[0], msg[1], msg[2], msg[3], msg[4] = probeSentinel, 0, 0, 0, 0
	f.probeC.SetTraceID(0)
	f.probeC.SendNoCopy(f.reps[g].leader, tagBatch, msg)
}

// stop sends every leader this front-end's stop sentinel. Mailbox FIFO per
// (src, tag) guarantees it arrives after every batch this front-end already
// submitted; a leader exits only after collecting a stop from every
// front-end, so each front-end's queue finishes first.
func (rt *router) stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	rt.mu.Unlock()
	rt.c.SetTraceID(0)
	for _, rep := range rt.reps {
		msg := comm.GetBuf(batchHdr)
		msg[0], msg[1], msg[2], msg[3], msg[4] = stopSentinel, 0, 0, 0, 0
		rt.c.SendNoCopy(rep.leader, tagBatch, msg)
	}
}

// startFleet builds the communication world, spawns the replica ranks,
// joins the collective communicator splits as the front-ends, and starts
// the per-front-end result/heartbeat collectors and the fleet-wide failure
// monitor once every replica reports ready.
func (s *Server) startFleet(model *nn.InferNet) error {
	groups := s.cfg.Groups
	nfe := s.cfg.FrontEnds
	total := nfe
	sharded := false
	for _, ranks := range groups {
		total += ranks
		if ranks > 1 {
			sharded = true
		}
	}
	var ck *nn.Checkpoint
	if sharded {
		// Sharded groups slice their weight shards from a captured copy of
		// the model's full state; single-rank replicas alias it via Clone.
		// The same capture restores a sharded group's shards on rejoin.
		var err error
		ck, err = nn.CaptureState(s.arch.Name, model.Params(), model.Buffers())
		if err != nil {
			return fmt.Errorf("serve: capturing model state: %w", err)
		}
	}
	world := comm.NewWorld(total)
	world.SetFaultPlan(s.cfg.Fault)
	f := &fleet{world: world, ck: ck, reps: newRepSet(groups, nfe)}
	s.fleet = f
	s.feRanks = make([]int, nfe)
	for i := range s.feRanks {
		s.feRanks[i] = i
	}

	// Size the flight recorder: one track per world rank (front-ends are
	// tracks 0..FrontEnds-1). Configure only grows the shared table, so
	// servers created in sequence coexist.
	obs.Configure(total, 1<<12)

	// Seed the message pool for the fleet's steady-state traffic: batch
	// payloads and results bounded by the in-flight slots across every
	// front-end, plus a deep cushion of heartbeat words (heartbeats are
	// fire-and-forget and fan out to every front-end, so their in-flight
	// window is scheduling-dependent).
	slots := len(groups)*s.qdPer*nfe + 2
	comm.Prefill(batchHdr+s.cfg.MaxBatch*s.inLen, slots)
	comm.Prefill(resultHdr+s.cfg.MaxBatch*s.outLen, slots)
	comm.Prefill(batchHdr, 16*nfe)
	comm.Prefill(1, 64*nfe)

	feComms := make([]*comm.Comm, nfe)
	for i := 0; i < nfe; i++ {
		feComms[i] = world.Comm(i)
		s.fes[i].rt = newRouter(feComms[i], f.reps, s.qdPer, s, s.fes[i])
	}
	f.probeC = feComms[0].Dup()

	// Clone single-rank replicas up front: once the first rank goroutine
	// spawns, its collective Split can only complete if every rank joins,
	// so nothing fallible may run between spawns.
	reps := make([]*nn.InferNet, len(groups))
	usedModel := false
	for g, ranks := range groups {
		if ranks != 1 {
			continue
		}
		reps[g] = model
		if usedModel {
			var err error
			if reps[g], err = model.Clone(); err != nil {
				return fmt.Errorf("serve: cloning replica %d: %w", g, err)
			}
		}
		usedModel = true
	}
	rank := nfe
	for g, ranks := range groups {
		grp := &groupRuntime{id: g, wg: new(sync.WaitGroup), members: make([]memberState, ranks)}
		for m := 0; m < ranks; m++ {
			grp.ranks = append(grp.ranks, rank+m)
		}
		f.groups = append(f.groups, grp)
		f.reps[g].members = grp.ranks
		rank += ranks
	}
	ready := make(chan error, total-nfe)
	for g, ranks := range groups {
		grp := f.groups[g]
		for m := 0; m < ranks; m++ {
			grp.wg.Add(1)
			f.repWG.Add(1)
			go s.replicaMain(world.Comm(grp.ranks[m]), grp, grp.wg, m, ranks, reps[g], ck, ready)
		}
	}
	// Join the collective Split every replica rank performs; front-ends
	// belong to no group. Split is a blocking collective over the whole
	// world, so every front-end handle must join concurrently.
	var feSplit sync.WaitGroup
	for i := 1; i < nfe; i++ {
		feSplit.Add(1)
		go func(c *comm.Comm, key int) {
			defer feSplit.Done()
			c.Split(-1, key)
		}(feComms[i], i)
	}
	feComms[0].Split(-1, 0)
	feSplit.Wait()
	var firstErr error
	for i := 0; i < total-nfe; i++ {
		if err := <-ready; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		for _, fe := range s.fes {
			fe.rt.stop() // leaders exit after a stop from every front-end
		}
		f.repWG.Wait()
		world.Shutdown()
		return firstErr
	}
	now := time.Now().UnixNano()
	for _, rep := range f.reps {
		rep.lastHeard.Store(now)
	}
	for _, fe := range s.fes {
		for g := range groups {
			s.wg.Add(2)
			go s.resultCollector(fe, g, fe.rt.c.Dup())
			go s.hbCollector(g, fe.rt.c.Dup())
		}
	}
	s.wg.Add(1)
	go s.monitor()
	return nil
}

// shutdown joins the replica ranks and drains the proxy engines.
func (f *fleet) shutdown() {
	f.repWG.Wait()
	f.world.Shutdown()
}

// collectorsDone reports whether a collector (or the monitor) may exit on
// an idle tick after Close: every front-end's batcher has submitted its
// final batch, every slot on every router has been resolved (answered or
// failed), and no replica respawn is mid-flight. Until then, collectors
// keep ticking so batches stranded by a late failure are still re-routed or
// failed — the zero-hung-Predicts guarantee holds through shutdown.
func (s *Server) collectorsDone() bool {
	for _, fe := range s.fes {
		if !fe.batcherExited.Load() {
			return false
		}
	}
	if s.fleet.respawning.Load() != 0 {
		return false
	}
	for _, fe := range s.fes {
		if !fe.rt.drained() {
			return false
		}
	}
	return true
}

// resultCollector receives replica g's answers to front-end fe, completes
// the batched requests, and recycles the batch. One goroutine per
// (front-end, replica), each on its own duplicate of its front-end's
// handle. Receives are deadline-bounded so a dead replica can never wedge
// the collector; stale results (failed-over batches answered twice,
// fault-injected duplicates) are dropped by the seq guard in claim.
func (s *Server) resultCollector(fe *frontEnd, g int, c *comm.Comm) {
	defer s.wg.Done()
	rt := fe.rt
	rep := s.fleet.reps[g]
	tick := s.cfg.HeartbeatInterval
	for {
		msg, err := c.RecvTimeout(rep.leader, tagResult, tick)
		if err != nil {
			if err == comm.ErrPeerDead {
				time.Sleep(tick) // dead peer returns instantly; don't spin
			}
			if s.collectorsDone() {
				return
			}
			continue
		}
		if msg[0] < 0 { // goodbye
			c.Release(msg)
			return
		}
		now := time.Now()
		rep.lastHeard.Store(now.UnixNano())
		rep.occ.Store(int32(msg[3]))
		b, sentAt := rt.claim(int(msg[0]), uint32(msg[1]))
		if b == nil {
			// Stale (failed-over or duplicated) result: no batch to claim,
			// but its occupancy report above still refreshed rep.occ.
			fe.stats.droppedResults.Add(1)
			c.Release(msg)
			continue
		}
		// Decompose the round trip: the leader reported wire (send ->
		// dequeue) and compute (executor forward) in the result header; the
		// remainder of sent -> claimed is the gather stage (result wire
		// transfer + collector scheduling).
		wire := time.Duration(msg[4]) * time.Microsecond
		compute := time.Duration(msg[5]) * time.Microsecond
		gather := now.Sub(time.Unix(0, sentAt)) - wire - compute
		if gather < 0 {
			gather = 0
		}
		fe.stats.recordStage(stgWire, wire)
		fe.stats.recordStage(stgCompute, compute)
		fe.stats.recordStage(stgGather, gather)
		if obs.Enabled() {
			nowNs := now.UnixNano()
			obs.RingFor(fe.id).RecordSpan(obs.StageGather, 0, uint64(msg[1]),
				nowNs-int64(gather), nowNs, int64(b.n))
		}
		n := b.n
		for i := 0; i < n; i++ {
			s.resolve(b.reqs[i], nil, msg[resultHdr+i*s.outLen:resultHdr+(i+1)*s.outLen])
		}
		rep.batches.Add(1)
		fe.stats.recordBatch(n)
		s.putBatch(b)
		c.Release(msg)
	}
}

// hbCollector drains replica g's occupancy heartbeats on one front-end's
// handle c (leaders fan each heartbeat to every front-end) into the
// replica's Occ, which every router's Pick reads, and feeds the failure
// monitor's liveness clock.
func (s *Server) hbCollector(g int, c *comm.Comm) {
	defer s.wg.Done()
	rep := s.fleet.reps[g]
	tick := s.cfg.HeartbeatInterval
	for {
		msg, err := c.RecvTimeout(rep.leader, tagHB, tick)
		if err != nil {
			if err == comm.ErrPeerDead {
				time.Sleep(tick)
			}
			if s.collectorsDone() {
				return
			}
			continue
		}
		v := msg[0]
		c.Release(msg)
		if v < 0 {
			return
		}
		rep.lastHeard.Store(time.Now().UnixNano())
		rep.occ.Store(int32(v))
	}
}

// executor runs one micro-batch on a replica: rows is the packed n*inLen
// input, the returned slice is the packed n*outLen output (owned by the
// executor, valid until the next run).
type executor interface {
	run(rows []float32, n int) []float32
	// trace sets the flight-recorder correlation id for the next run:
	// single-rank executors stamp their InferNet, sharded leaders also
	// broadcast it so follower ranks tag the same request.
	trace(id uint64)
	// stop releases group members (sharded executors broadcast the stop
	// sentinel to their followers).
	stop()
}

// replicaMain is one replica rank: it joins its group communicator, builds
// its executor (leader and followers collectively for sharded groups),
// records its runtime state for the supervisor, and serves. Group leaders
// talk to the front-ends; followers are driven by their leader's
// broadcasts. A fault-injection kill unwinds the goroutine cleanly via
// RecoverKilled; the failure monitor quarantines the replica and may later
// respawn it (replicaRestart).
func (s *Server) replicaMain(c *comm.Comm, grp *groupRuntime, wg *sync.WaitGroup, member, ranks int, model *nn.InferNet, ck *nn.Checkpoint, ready chan<- error) {
	defer s.fleet.repWG.Done()
	defer wg.Done()
	defer comm.RecoverKilled()
	group := c.Split(grp.id, c.Rank())
	var ex executor
	var dnet *nn.DistInferNet
	var err error
	if ranks == 1 {
		model.SetTrace(obs.RingFor(c.Rank()))
		ex = newLocalExec(model, s.cfg.MaxBatch, s.inLen, s.outLen)
	} else {
		pls := nn.ShardedPlacements(s.arch, ranks, s.cfg.ShardSplit)
		dnet, err = nn.NewDistInferNet(group, s.arch, s.cfg.MaxBatch, pls)
		if err == nil && ck != nil {
			err = dnet.LoadCheckpoint(ck)
		}
		if err == nil {
			dnet.SetTrace(obs.RingFor(c.Rank()))
			ex = newShardExec(dnet, group, s.inLen, s.outLen)
		}
	}
	grp.members[member] = memberState{c: c, group: group, ex: ex, dnet: dnet}
	ready <- err
	if err != nil {
		return
	}
	if member == 0 {
		s.leaderLoop(c, ex)
	} else {
		followerLoop(group, dnet, s.inLen)
	}
}

// leaderItem is one queued front-end message on a leader: the pooled wire
// buffer plus the front-end rank that sent it (results answer that rank).
type leaderItem struct {
	msg []float32
	src int
}

// leaderLoop is a group leader's serving loop: drain queued batch messages
// from every front-end (reporting backlog via heartbeats fanned to all of
// them, steady-state occupancy via the result header), execute, and ship
// each result back to its submitting front-end through the communicator's
// proxy engine so the send overlaps the next batch's dequeue and forward
// pass. The dequeue is deadline-bounded: every idle tick emits a heartbeat
// fan-out, which is the liveness signal the front-ends' silence detector
// watches. The loop exits only after collecting a stop sentinel from every
// front-end, then says goodbye to each.
func (s *Server) leaderLoop(c *comm.Comm, ex executor) {
	nfe := len(s.feRanks)
	queue := make([]leaderItem, 0, nfe*(s.qdPer+2))
	hb := func(depth int) {
		for _, r := range s.feRanks {
			b := comm.GetBuf(1)
			b[0] = float32(depth)
			c.SendNoCopy(r, tagHB, b)
		}
	}
	// The result send is pre-bound so warm submissions allocate nothing;
	// resBuf/resDst are re-pointed per batch after the previous send
	// completes.
	var resBuf []float32
	resDst := 0
	send := func(*comm.Comm) { c.SendNoCopy(resDst, tagResult, resBuf) }
	var pendingSend *comm.Request
	stops := 0
	hb(0) // hello: announce liveness before the first batch
	for {
		if len(queue) == 0 {
			msg, src, err := c.RecvMultiTimeout(s.feRanks, tagBatch, s.cfg.HeartbeatInterval)
			if err != nil {
				hb(0) // idle: keep the silence detector fed
				continue
			}
			queue = append(queue, leaderItem{msg, src})
		}
		for _, r := range s.feRanks {
			for {
				m, ok := c.TryRecv(r, tagBatch)
				if !ok {
					break
				}
				queue = append(queue, leaderItem{m, r})
			}
		}
		if len(queue) > 1 {
			// A real backlog: tell every router ahead of the next result.
			hb(len(queue))
		}
		item := queue[0]
		copy(queue, queue[1:])
		queue[len(queue)-1] = leaderItem{}
		queue = queue[:len(queue)-1]
		msg := item.msg
		if msg[0] == stopSentinel { // FIFO puts it after the sender's batches
			c.Release(msg)
			stops++
			if stops < nfe {
				continue // other front-ends may still be draining
			}
			ex.stop()
			if pendingSend != nil {
				pendingSend.Wait()
			}
			// Goodbye to every front-end, ordered after all results (the
			// engine was just drained, and sends here are mailbox-FIFO).
			for _, r := range s.feRanks {
				res := comm.GetBuf(resultHdr)
				res[0], res[1], res[2] = -1, 0, 0
				res[3], res[4], res[5] = 0, 0, 0
				c.SendNoCopy(r, tagResult, res)
			}
			hb(-1)
			return
		}
		if msg[0] == probeSentinel { // health probe: answer with liveness
			c.Release(msg)
			hb(len(queue))
			continue
		}
		n := int(msg[2])
		seq := uint64(msg[1])
		// Price the wire stage against the dispatch timestamp carried in
		// the header (same process, same clock); clamp into the 24 exact
		// float32 bits for the trip back.
		sentUS := int64(msg[3])<<20 | int64(msg[4])
		wireUS := (time.Now().UnixNano()-s.epochNs)/1000 - sentUS
		if wireUS < 0 {
			wireUS = 0
		} else if wireUS >= 1<<24 {
			wireUS = 1<<24 - 1
		}
		if obs.Enabled() {
			sentNs := s.epochNs + sentUS*1000
			obs.RingFor(c.Rank()).RecordSpan(obs.StageWire, 0, seq,
				sentNs, sentNs+wireUS*1000, int64(len(msg))*4)
		}
		ex.trace(seq)
		c.SetTraceID(seq)
		t0 := time.Now()
		out := ex.run(msg[batchHdr:batchHdr+n*s.inLen], n)
		computeUS := time.Since(t0).Microseconds()
		if computeUS >= 1<<24 {
			computeUS = 1<<24 - 1
		}
		if obs.Enabled() {
			obs.RingFor(c.Rank()).RecordSpan(obs.StageCompute, 0, seq,
				t0.UnixNano(), t0.UnixNano()+computeUS*1000, int64(n))
		}
		if pendingSend != nil {
			pendingSend.Wait()
		}
		res := comm.GetBuf(resultHdr + n*s.outLen)
		res[0], res[1], res[2] = msg[0], msg[1], msg[2]
		res[3] = float32(len(queue)) // post-batch occupancy rides the result
		res[4] = float32(wireUS)
		res[5] = float32(computeUS)
		copy(res[resultHdr:], out[:n*s.outLen])
		c.Release(msg)
		resBuf = res
		resDst = item.src
		pendingSend = c.Do(send)
	}
}

// followerLoop drives a non-leader member of a sharded replica: every
// iteration mirrors the leader's broadcasts (the live count, then only the
// live rows, into the staging prefix) and joins the collective forward on
// those rows. When the leader is killed, the broadcast receive panics with
// the kill sentinel and replicaMain's RecoverKilled unwinds the follower —
// the whole group fails together, which keeps its collective state
// consistent for the rejoin drain.
func followerLoop(group *comm.Comm, dnet *nn.DistInferNet, inLen int) {
	var hdr [2]float32
	staging := dnet.StagingInput()
	for {
		group.Bcast(hdr[:], 0)
		n := int(hdr[0])
		if n < 0 {
			return
		}
		// hdr[1] is the leader's trace correlation id (the batch seq): tag
		// this rank's spans — and its collective traffic — with the same
		// request the leader is serving.
		id := uint64(hdr[1])
		dnet.SetTraceID(id)
		group.SetTraceID(id)
		group.Bcast(staging.Data()[:n*inLen], 0)
		dnet.Forward(staging, n)
	}
}

// localExec serves a single-rank replica on an nn.InferNet: batch rows are
// staged into a capacity-sized tensor and forwarded through cached
// sub-batch views, exactly the in-process serving path.
type localExec struct {
	net           *nn.InferNet
	buf           *[]float32
	views         []*tensor.Tensor
	inLen, outLen int
}

func newLocalExec(net *nn.InferNet, maxBatch, inLen, outLen int) *localExec {
	return &localExec{
		net:   net,
		buf:   kernels.DefaultWorkspace().Get(maxBatch * inLen),
		views: make([]*tensor.Tensor, maxBatch),
		inLen: inLen, outLen: outLen,
	}
}

func (e *localExec) run(rows []float32, n int) []float32 {
	copy((*e.buf)[:n*e.inLen], rows)
	v := e.views[n-1]
	if v == nil {
		in := e.net.InShape()
		v = tensor.FromSlice((*e.buf)[:n*e.inLen], n, in.C, in.H, in.W)
		e.views[n-1] = v
	}
	y := e.net.Forward(v)
	return y.Data()[:n*e.outLen]
}

func (e *localExec) trace(id uint64) { e.net.SetTraceID(id) }

func (e *localExec) stop() {}

// shardExec serves a multi-rank replica: the leader broadcasts the batch's
// live rows to its group and every member runs the collective DistInferNet
// forward on them; the leader gets the assembled output back.
type shardExec struct {
	net           *nn.DistInferNet
	group         *comm.Comm
	staging       *tensor.Tensor
	hdr           [2]float32 // [n, traceID]; n < 0 = stop
	id            uint64     // pending trace correlation id for the next run
	inLen, outLen int
}

func newShardExec(net *nn.DistInferNet, group *comm.Comm, inLen, outLen int) *shardExec {
	return &shardExec{
		net:   net,
		group: group,
		// Capacity staging: rows past the live count hold a previous
		// batch's data, which the forward never reads.
		staging: net.StagingInput(),
		inLen:   inLen, outLen: outLen,
	}
}

func (e *shardExec) run(rows []float32, n int) []float32 {
	e.hdr[0] = float32(n)
	e.hdr[1] = float32(e.id) // 24-bit seq, exact in a float32
	e.group.Bcast(e.hdr[:], 0)
	copy(e.staging.Data()[:n*e.inLen], rows)
	e.group.Bcast(e.staging.Data()[:n*e.inLen], 0)
	y := e.net.Forward(e.staging, n)
	return y.Data()[:n*e.outLen]
}

func (e *shardExec) trace(id uint64) {
	e.id = id
	e.net.SetTraceID(id)
	e.group.SetTraceID(id)
}

func (e *shardExec) stop() {
	e.hdr[0], e.hdr[1] = -1, 0
	e.group.Bcast(e.hdr[:], 0)
}
