package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Errors returned by Predict.
var (
	// ErrClosed is returned by Predict after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrOverloaded is returned when the admission queue for the request's
	// priority class is full: the server sheds instead of queueing without
	// bound, so served-request latency stays bounded under overload.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrExpired is returned when a request's deadline passed before a
	// replica could take it; the batcher sheds it rather than spend a
	// forward pass on an answer the caller no longer wants. An
	// already-expired deadline (or context) sheds before entering the lane.
	ErrExpired = errors.New("serve: deadline expired before serving")
	// ErrCanceled is returned when the request's context was canceled
	// before a result arrived.
	ErrCanceled = errors.New("serve: request canceled")
	// ErrUnavailable is returned when no live replica exists to take the
	// request: every replica is quarantined (or still rejoining), so the
	// server fails fast instead of queueing into a hole.
	ErrUnavailable = errors.New("serve: no live replicas")
	// ErrFailed is returned when a batch was stranded by replica failures
	// more times than the retry budget allows.
	ErrFailed = errors.New("serve: request lost to replica failure, retry budget exhausted")
	// ErrQuota is returned by the binary ingest path when the request's
	// tenant token bucket is empty: the frame is shed at the socket,
	// before its payload is even parsed.
	ErrQuota = errors.New("serve: tenant quota exceeded, shed at the socket")
)

// Priority classifies a request for admission control: high-priority
// requests use a separate admission lane and the batcher always drains them
// first, so low-priority floods cannot starve them.
type Priority int

// Request priorities.
const (
	PriorityNormal Priority = iota
	PriorityHigh
)

// PredictOptions tune one Predict call.
type PredictOptions struct {
	// Priority selects the admission lane. Default PriorityNormal.
	Priority Priority
	// Deadline is the caller's latency budget; zero means none. A request
	// whose deadline passes while it waits is shed with ErrExpired (and
	// counted) instead of being served late. A negative Deadline is
	// already expired and sheds immediately.
	Deadline time.Duration
	// Ctx cancels the call from the caller's side: Predict returns
	// ErrCanceled (or ErrExpired for a context deadline) as soon as the
	// context fires, without waiting for the in-flight batch — the result
	// is discarded when it arrives. A context deadline also bounds the
	// request like Deadline (the tighter of the two wins); a context that
	// is already done sheds before entering the admission lane. Nil means
	// no context.
	Ctx context.Context
}

// Config tunes the dynamic micro-batcher, the replica fleet, and admission
// control.
type Config struct {
	// FrontEnds runs this many front-end ranks, each owning its own
	// admission lanes, batcher, router (with its own sched.Policy
	// instance), and collectors, all routing to the shared replica set.
	// In-process Predict calls round-robin across front-ends; binary
	// ingest connections pin to one. Each replica's QueueDepth in-flight
	// budget is partitioned evenly across front-ends (at least 1 each),
	// so no cross-front-end coordination is needed beyond the heartbeats
	// replica leaders already fan out. Default 1.
	FrontEnds int
	// Replicas is the number of single-rank model replicas when Groups is
	// nil. Default 1.
	Replicas int
	// Groups gives the comm-rank count of every replica: len(Groups)
	// replicas, entry g sharded over Groups[g] ranks. A 1-rank replica runs
	// an nn.InferNet; a multi-rank replica runs a placement-sharded
	// nn.DistInferNet whose layers split the channel axis Groups[g] ways.
	// Overrides Replicas when non-nil.
	Groups []int
	// ShardSplit selects the weight split of sharded replicas'
	// convolutions. The default (SplitNone) means dist.SplitFilter, the
	// split whose answers are bitwise identical to an unsharded replica;
	// dist.SplitChannel trades that for a cheaper forward collective.
	ShardSplit dist.Split
	// MaxBatch flushes a forming batch at this many requests; must not
	// exceed the model's InferNet capacity. Default 8.
	MaxBatch int
	// BatchDeadline flushes a non-empty forming batch this long after its
	// first request arrived. Zero means the 2ms default; pass Greedy (or any
	// negative duration) to never wait — flush whatever is queued the
	// instant the batcher gets to it.
	BatchDeadline time.Duration
	// QueueDepth is the per-replica in-flight batch cap: the fleet sends a
	// replica at most this many unanswered batches, the budget partitioned
	// evenly across front-ends. When every replica is at its cap the
	// batcher blocks (backpressure), which fills the admission lanes and
	// sheds further arrivals. Default 2 (with several front-ends, at least
	// one slot per front-end per replica).
	QueueDepth int
	// PendingRequests is the capacity of each admission lane (one high and
	// one normal lane per front-end). A request arriving at a full lane is
	// shed with ErrOverloaded. Default 4*MaxBatch.
	PendingRequests int
	// Policy is the replica-routing policy (see internal/sched for the
	// contract and the registry: sched.New("jsq2") etc.). Nil selects
	// sched.NewLeastLoaded(), the shipped default — the winner of the
	// internal/sim policy races on the reference traces. The policy's
	// hooks run under the router lock; one Policy value must not be shared
	// between servers. With FrontEnds > 1 the policy applies to front-end
	// 0 and the others construct fresh instances of the same default, so
	// leave it nil when sharding the front-end.
	Policy sched.Policy

	// TenantRate, when > 0, arms per-tenant token-bucket quotas on the
	// binary ingest path: each tenant id refills at TenantRate requests
	// per second up to TenantBurst tokens, and a frame arriving with an
	// empty bucket is shed at the socket (status quota, ErrQuota
	// client-side) before its payload is read. Zero disables quotas.
	TenantRate float64
	// TenantBurst is the token-bucket depth; default max(1, TenantRate).
	TenantBurst int

	// HeartbeatInterval paces the fleet's liveness machinery: idle replica
	// leaders heartbeat at this period, and the front-end's collectors and
	// failure monitor tick at it. Default 25ms.
	HeartbeatInterval time.Duration
	// FailTimeout quarantines a replica that has nothing in flight yet has
	// been heartbeat-silent this long. (A replica with batches in flight
	// is judged by BatchTimeout alone, so a long forward pass is never
	// misread as death.) Default 500ms.
	FailTimeout time.Duration
	// BatchTimeout quarantines a replica when a batch it owns has gone
	// unanswered this long. Default 2s.
	BatchTimeout time.Duration
	// RetryBudget is how many times a batch stranded by replica failure is
	// re-dispatched before its requests fail with ErrFailed. Default 2;
	// negative means no retries.
	RetryBudget int
	// RejoinAfter is how long a quarantined replica waits before the
	// supervisor respawns and health-probes it. Default 250ms; negative
	// disables rejoin (quarantine is permanent).
	RejoinAfter time.Duration
	// Fault installs a deterministic fault-injection plan on the fleet's
	// communication world (chaos testing). World ranks 0..FrontEnds-1 are
	// front-ends and must not be killed. Nil injects nothing.
	Fault *comm.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.FrontEnds <= 0 {
		c.FrontEnds = 1
	}
	if c.Groups == nil {
		if c.Replicas <= 0 {
			c.Replicas = 1
		}
		c.Groups = make([]int, c.Replicas)
		for i := range c.Groups {
			c.Groups[i] = 1
		}
	}
	c.Replicas = len(c.Groups)
	if c.ShardSplit == dist.SplitNone {
		c.ShardSplit = dist.SplitFilter
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchDeadline < 0 {
		c.BatchDeadline = 0
	} else if c.BatchDeadline == 0 {
		c.BatchDeadline = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2
	}
	if c.PendingRequests <= 0 {
		c.PendingRequests = 4 * c.MaxBatch
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = int(c.TenantRate)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 500 * time.Millisecond
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	} else if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RejoinAfter == 0 {
		c.RejoinAfter = 250 * time.Millisecond
	}
	return c
}

// Greedy is the BatchDeadline sentinel for "never wait": the batcher
// flushes whatever is queued the moment it can. (A literal zero in Config
// means "use the default deadline".)
const Greedy = time.Duration(-1)

// Request resolution states: every accepted request is resolved exactly
// once, either by the server (resolve: result, shed, or failure) or by its
// caller abandoning it on context cancellation. The CAS on state decides
// the race: a resolver that loses must not touch the caller's out slice
// (the caller has already returned), and recycles the request instead.
const (
	reqPending int32 = iota
	reqServed
	reqCanceled
)

// request is one in-flight Predict. Pooled; the done channel (capacity 1)
// carries exactly one token per use, so recycled requests never see stale
// signals.
type request struct {
	in, out  []float32
	start    time.Time
	deadline time.Time // zero: no deadline
	ctx      context.Context
	state    atomic.Int32
	err      error // outcome, read after done fires
	done     chan struct{}
}

var reqPool = sync.Pool{New: func() any {
	return &request{done: make(chan struct{}, 1)}
}}

// batch is a forming/flushed micro-batch: up to MaxBatch requests and their
// coalesced input rows, staged contiguously so the router can ship them to
// a replica rank in one pooled message. The staging storage is drawn from
// the kernels workspace arena once per pooled batch object.
type batch struct {
	reqs []*request
	n    int
	buf  *[]float32

	// openedAt (UnixNano) marks when the first request landed; the gap to
	// flush is the batch-wait stage of the latency decomposition.
	openedAt int64
	// deadlineNs is the earliest rider deadline (UnixNano; 0 = none),
	// exposed to the routing policy as sched.BatchView.Deadline.
	deadlineNs int64
}

// frontEnd is one front-end rank's runtime: its own admission lanes,
// batcher, router (with a private sched.Policy instance), collectors, and
// stats collector. Front-ends share nothing but the replica set and the
// request/batch pools; coherence across them comes from the leaders'
// heartbeat fan-out plus the static partition of each replica's in-flight
// budget, not from any gossip between front-ends.
type frontEnd struct {
	id              int // front-end rank == world rank == obs track
	rt              *router
	reqHigh, reqLow chan *request
	stats           *statsCollector

	// batcherExited flips after this front-end's batcher submitted its
	// final batch: together with drained routers and no respawn in flight
	// it releases the collectors and the failure monitor.
	batcherExited atomic.Bool
}

// Server is the serving runtime: FrontEnds front-end comm ranks each owning
// a batcher, a policy router, and admission lanes, plus a fleet of replica
// ranks (single-rank InferNets and placement-sharded DistInferNet groups)
// that they feed over the communication substrate. Construct with New,
// serve with Predict (or the HTTP handler, or ServeBinary), stop with
// Close.
type Server struct {
	cfg  Config
	arch *nn.Arch

	inShape, outShape nn.Shape
	inLen, outLen     int

	fleet   *fleet
	fes     []*frontEnd
	feRanks []int         // world ranks 0..FrontEnds-1, the leaders' fan-out list
	nextFE  atomic.Uint32 // round-robin cursor for Predict and new conns
	qdPer   int           // per-front-end share of each replica's QueueDepth

	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex // serializes Predict enqueue against Close
	closed bool

	// stats holds the fleet-level counters (quarantines, rejoins) that are
	// not owned by any single front-end; per-front-end collectors hold the
	// rest and Stats() aggregates them all.
	stats     *statsCollector
	batchPool sync.Pool
	ws        *kernels.Workspace
	tenants   *tenantTable

	// Binary ingest bookkeeping: listeners and connections to close.
	binMu    sync.Mutex
	binLns   []interface{ Close() error }
	binConns map[interface{ Close() error }]struct{}
	binWG    sync.WaitGroup

	// epochNs anchors the wire protocol's batch timestamps: senders encode
	// µs-since-epoch split across two float32 header fields (both exact),
	// and the replica leader — same process, same clock — prices the wire
	// stage against it.
	epochNs int64
}

// New starts a server over model. The model's weights may be (re)loaded via
// nn.LoadState into model.Params()/Buffers() before New; single-rank
// replicas share them directly (Clone), sharded replica groups slice their
// shards from a captured copy.
func New(model *nn.InferNet, cfg Config) (*Server, error) {
	if cfg.MaxBatch > model.MaxBatch() {
		return nil, fmt.Errorf("serve: MaxBatch %d exceeds model capacity %d", cfg.MaxBatch, model.MaxBatch())
	}
	cfg = cfg.withDefaults() // Greedy (any negative deadline) maps to zero
	if cfg.MaxBatch > model.MaxBatch() {
		// The default MaxBatch clamps to what the replicas can hold.
		cfg.MaxBatch = model.MaxBatch()
	}
	for g, ranks := range cfg.Groups {
		if ranks < 1 {
			return nil, fmt.Errorf("serve: replica group %d has %d ranks", g, ranks)
		}
	}
	if cfg.Fault != nil {
		for r := 0; r < cfg.FrontEnds; r++ {
			if n, ok := cfg.Fault.Kill[r]; ok && n > 0 {
				return nil, fmt.Errorf("serve: fault plan kills world rank %d, a front-end", r)
			}
		}
	}
	in, out := model.InShape(), model.OutShape()
	s := &Server{
		cfg:      cfg,
		arch:     model.Arch,
		inShape:  in,
		outShape: out,
		inLen:    in.C * in.H * in.W,
		outLen:   out.C * out.H * out.W,
		done:     make(chan struct{}),
		stats:    newStatsCollector(cfg.MaxBatch),
		ws:       kernels.DefaultWorkspace(),
		tenants:  newTenantTable(cfg.TenantRate, cfg.TenantBurst),
		binConns: make(map[interface{ Close() error }]struct{}),
		epochNs:  time.Now().UnixNano(),
	}
	s.qdPer = cfg.QueueDepth / cfg.FrontEnds
	if s.qdPer < 1 {
		s.qdPer = 1
	}
	s.batchPool.New = func() any {
		return &batch{
			reqs: make([]*request, cfg.MaxBatch),
			buf:  s.ws.Get(cfg.MaxBatch * s.inLen),
		}
	}
	for i := 0; i < cfg.FrontEnds; i++ {
		s.fes = append(s.fes, &frontEnd{
			id:      i,
			reqHigh: make(chan *request, cfg.PendingRequests),
			reqLow:  make(chan *request, cfg.PendingRequests),
			stats:   newStatsCollector(cfg.MaxBatch),
		})
	}
	if err := s.startFleet(model); err != nil {
		return nil, err
	}
	for _, fe := range s.fes {
		s.wg.Add(1)
		go s.batcher(fe)
	}
	return s, nil
}

// InputLen and OutputLen are the flat per-sample lengths Predict expects.
func (s *Server) InputLen() int  { return s.inLen }
func (s *Server) OutputLen() int { return s.outLen }

// InShape and OutShape expose the model's per-sample shapes.
func (s *Server) InShape() nn.Shape  { return s.inShape }
func (s *Server) OutShape() nn.Shape { return s.outShape }

// Stats snapshots the latency/occupancy histograms, the shed counters, and
// the per-replica routing state, aggregated across every front-end (the
// per-front-end breakdown rides along in Stats.FrontEnds).
func (s *Server) Stats() Stats {
	st := snapshotStats(s.collectors())
	for _, fe := range s.fes {
		st.FrontEnds = append(st.FrontEnds, fe.stats.frontEndStats())
	}
	reps := s.fleet.reps
	inflight := make([]int, len(reps))
	for _, fe := range s.fes {
		fe.rt.mu.Lock()
		for g := range reps {
			inflight[g] += fe.rt.inflight[g]
		}
		fe.rt.mu.Unlock()
	}
	for g, rep := range reps {
		st.Replicas = append(st.Replicas, ReplicaStats{
			Ranks:      rep.ranks,
			Batches:    rep.batches.Load(),
			InFlight:   inflight[g],
			QueueDepth: int(rep.occ.Load()),
			State:      repLife(rep.life.Load()).String(),
		})
	}
	return st
}

// Predict runs one sample through the model at normal priority with no
// deadline: in (len InputLen) is read until the call returns, the result is
// written into out (len OutputLen). Safe for arbitrary concurrency; after
// warm-up the call performs no heap allocations. Returns ErrOverloaded
// without blocking when the admission lane is full. Requests round-robin
// across the configured front-ends.
func (s *Server) Predict(in, out []float32) error {
	return s.PredictOpts(in, out, PredictOptions{})
}

// PredictOpts is Predict with an explicit priority class, deadline, and
// cancellation context.
func (s *Server) PredictOpts(in, out []float32, opts PredictOptions) error {
	fe := s.fes[int(s.nextFE.Add(1)-1)%len(s.fes)]
	return s.predictOn(fe, in, out, opts)
}

// predictOn runs one request through front-end fe with full conservation
// accounting: every offered request is counted exactly once as served
// (requests), shed (shed_full / shed_expired), canceled, or failed, so
// offered == requests + sheds + canceled + failed holds per front-end and
// in aggregate. The binary ingest path counts offered itself (at the frame
// header) and calls predictFE directly.
func (s *Server) predictOn(fe *frontEnd, in, out []float32, opts PredictOptions) error {
	if len(in) != s.inLen {
		return fmt.Errorf("serve: input length %d, want %d", len(in), s.inLen)
	}
	if len(out) != s.outLen {
		return fmt.Errorf("serve: output length %d, want %d", len(out), s.outLen)
	}
	fe.stats.offered.Add(1)
	return s.predictFE(fe, in, out, opts)
}

// predictFE enqueues on fe's lanes and waits for resolution, classifying
// the outcome into fe's counters (everything except offered, which the
// caller has already counted).
func (s *Server) predictFE(fe *frontEnd, in, out []float32, opts PredictOptions) error {
	err := s.predictWait(fe, in, out, opts)
	switch err {
	case nil:
		// recordLatency counted it as served.
	case ErrOverloaded:
		fe.stats.shedFull.Add(1)
	case ErrExpired:
		fe.stats.shedExpired.Add(1)
	case ErrCanceled:
		fe.stats.canceled.Add(1)
	default: // ErrFailed, ErrUnavailable, ErrClosed
		fe.stats.failed.Add(1)
	}
	return err
}

func (s *Server) predictWait(fe *frontEnd, in, out []float32, opts PredictOptions) error {
	now := time.Now()
	// Pre-lane shed: a deadline or context that is already dead never
	// enters the admission lane — no batcher slot, no forward pass.
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = now.Add(opts.Deadline)
	} else if opts.Deadline < 0 {
		return ErrExpired
	}
	if ctx := opts.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			if err == context.DeadlineExceeded {
				return ErrExpired
			}
			return ErrCanceled
		}
		if dl, ok := ctx.Deadline(); ok {
			if !dl.After(now) {
				return ErrExpired
			}
			if deadline.IsZero() || dl.Before(deadline) {
				deadline = dl
			}
		}
	}
	r := reqPool.Get().(*request)
	r.in, r.out = in, out
	r.start = now
	r.err = nil
	r.deadline = deadline
	r.ctx = opts.Ctx
	r.state.Store(reqPending)
	lane := fe.reqLow
	if opts.Priority == PriorityHigh {
		lane = fe.reqHigh
	}

	// The read lock pins the closed check to the enqueue: Close flips closed
	// under the write lock before signaling the batchers to drain, so a
	// request that entered a lane is guaranteed to be drained and resolved.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		r.in, r.out, r.ctx = nil, nil, nil
		reqPool.Put(r)
		return ErrClosed
	}
	select {
	case lane <- r:
		s.mu.RUnlock()
	default:
		// Admission control: the lane is full, shed instead of queueing
		// without bound.
		s.mu.RUnlock()
		r.in, r.out, r.ctx = nil, nil, nil
		reqPool.Put(r)
		return ErrOverloaded
	}

	if r.ctx != nil {
		select {
		case <-r.done:
		case <-r.ctx.Done():
			cerr := r.ctx.Err()
			if r.state.CompareAndSwap(reqPending, reqCanceled) {
				// The request is abandoned in place: whichever resolver
				// reaches it later loses the CAS, leaves out untouched,
				// and recycles it. Returning now without recycling is the
				// at-most-once half of the contract.
				if cerr == context.DeadlineExceeded {
					return ErrExpired
				}
				return ErrCanceled
			}
			// A resolver won the race; its token is (or is about to be) on
			// the channel.
			<-r.done
		}
	} else {
		<-r.done
	}
	err := r.err
	if err == nil {
		fe.stats.recordLatency(time.Since(r.start))
	}
	r.in, r.out, r.ctx = nil, nil, nil
	reqPool.Put(r)
	return err
}

// resolve completes r exactly once with a result (err nil: out holds the
// answer rows) or a failure. If the caller already abandoned the request
// (context cancellation won the CAS), the out slice must not be written —
// the caller has returned — and resolve recycles the request on the
// caller's behalf.
func (s *Server) resolve(r *request, err error, out []float32) {
	if !r.state.CompareAndSwap(reqPending, reqServed) {
		r.in, r.out, r.ctx = nil, nil, nil
		reqPool.Put(r)
		return
	}
	if err == nil {
		copy(r.out, out)
	}
	r.err = err
	r.done <- struct{}{}
}

// failBatch resolves every request of a batch with err and recycles it.
func (s *Server) failBatch(b *batch, err error) {
	for i := 0; i < b.n; i++ {
		s.resolve(b.reqs[i], err, nil)
	}
	s.putBatch(b)
}

// Close stops accepting requests, resolves everything already accepted
// (serving it, or shedding it if its deadline passed), closes the binary
// ingest listeners and connections, and waits for the batchers, the
// replica ranks, and the collectors to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.closeBinary()
	s.binWG.Wait()
	s.wg.Wait()
	s.fleet.shutdown()
}

func (s *Server) getBatch() *batch {
	b := s.batchPool.Get().(*batch)
	b.n = 0
	b.deadlineNs = 0
	return b
}

func (s *Server) putBatch(b *batch) {
	for i := 0; i < b.n; i++ {
		b.reqs[i] = nil
	}
	b.n = 0
	s.batchPool.Put(b)
}

// add copies r's input into slot n of the forming batch — unless r's
// deadline has already passed or its context was canceled, in which case
// it is shed on the spot (the shed is counted by the caller's outcome
// classification in predictFE, never here, so conservation holds).
func (s *Server) add(fe *frontEnd, b *batch, r *request) {
	now := time.Now()
	if !r.deadline.IsZero() && now.After(r.deadline) {
		s.resolve(r, ErrExpired, nil)
		return
	}
	if r.ctx != nil && r.ctx.Err() != nil {
		s.resolve(r, ErrCanceled, nil)
		return
	}
	fe.stats.recordStage(stgQueueWait, now.Sub(r.start))
	copy((*b.buf)[b.n*s.inLen:(b.n+1)*s.inLen], r.in)
	if b.n == 0 {
		b.openedAt = now.UnixNano()
	}
	if !r.deadline.IsZero() {
		if dl := r.deadline.UnixNano(); b.deadlineNs == 0 || dl < b.deadlineNs {
			b.deadlineNs = dl
		}
	}
	b.reqs[b.n] = r
	b.n++
}

// popNow returns a queued request without blocking, high priority first.
func (fe *frontEnd) popNow() *request {
	select {
	case r := <-fe.reqHigh:
		return r
	default:
	}
	select {
	case r := <-fe.reqLow:
		return r
	default:
	}
	return nil
}

// batcher coalesces one front-end's requests into batches: flush on
// MaxBatch, on deadline, or — with a greedy (zero) deadline — as soon as
// the lanes momentarily empty. High-priority requests are always drained
// first. One batcher goroutine per front-end.
func (s *Server) batcher(fe *frontEnd) {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	stopTimer := func() {
		if !timer.Stop() {
			<-timer.C
		}
	}
	cur := s.getBatch()
	flush := func() {
		if !fe.rt.submit(cur) {
			s.failBatch(cur, ErrUnavailable)
		}
		cur = s.getBatch()
	}
	for {
		if cur.n == 0 {
			var r *request
			select {
			case r = <-fe.reqHigh:
			default:
				select {
				case r = <-fe.reqHigh:
				case r = <-fe.reqLow:
				case <-s.done:
					s.drain(fe, cur)
					return
				}
			}
			s.add(fe, cur, r)
			if cur.n == 0 {
				continue // the lone request was shed on expiry
			}
			if cur.n >= s.cfg.MaxBatch {
				flush()
				continue
			}
			if s.cfg.BatchDeadline == 0 {
				// Greedy: absorb what is queued right now, then flush.
				for cur.n < s.cfg.MaxBatch {
					r := fe.popNow()
					if r == nil {
						break
					}
					s.add(fe, cur, r)
				}
				if cur.n > 0 {
					flush()
				}
				continue
			}
			timer.Reset(s.cfg.BatchDeadline)
			continue
		}
		// Forming batch, deadline armed. The nested select keeps the
		// high-priority bias: a waiting high request is always taken before
		// the flat (uniform-choice) select can hand a slot to the low lane.
		var r *request
		fired := false
		select {
		case r = <-fe.reqHigh:
		default:
			select {
			case r = <-fe.reqHigh:
			case r = <-fe.reqLow:
			case <-timer.C:
				fired = true
			case <-s.done:
				stopTimer()
				s.drain(fe, cur)
				return
			}
		}
		if fired {
			flush()
			continue
		}
		s.add(fe, cur, r)
		if cur.n >= s.cfg.MaxBatch {
			stopTimer()
			flush()
		}
	}
}

// drain resolves every request that made it into fe's lanes before Close
// flipped the closed flag, then sends this front-end's stop sentinels.
func (s *Server) drain(fe *frontEnd, cur *batch) {
	submit := func(b *batch) {
		if !fe.rt.submit(b) {
			s.failBatch(b, ErrUnavailable)
		}
	}
	for {
		r := fe.popNow()
		if r == nil {
			break
		}
		s.add(fe, cur, r)
		if cur.n >= s.cfg.MaxBatch {
			submit(cur)
			cur = s.getBatch()
		}
	}
	if cur.n > 0 {
		submit(cur)
	} else {
		s.putBatch(cur)
	}
	// From here this router gains no new work: once every router's slots
	// drain the monitor may exit. Each front-end sends its own stop
	// sentinels; a leader exits after collecting one from every front-end.
	fe.batcherExited.Store(true)
	fe.rt.stop()
}
