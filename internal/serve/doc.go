// Package serve is the distributed inference-serving runtime: it turns the
// repo's forward-only executor, the forward-only StrategyNet (nn.InferNet
// on one rank, the placement-sharded nn.DistInferNet for models too big
// for one device), into an online service that answers concurrent Predict
// requests with dynamic micro-batching, routed over the communication
// substrate.
//
// # Architecture
//
// The server owns a comm.World: ranks 0 through Config.FrontEnds-1 are
// front-ends (one by default), every other rank belongs to one replica
// group (Config.Groups, packed after the front-ends). Requests flow
//
//	Predict callers ──> admission lanes ──> batcher ──> policy router
//	     ──(comm messages)──> replica group leaders ──> collectors ──> callers
//
// A batcher is one goroutine per front-end that coalesces that front-end's
// concurrent requests into micro-batches: it copies each request's input
// into the forming batch's pooled staging buffer and flushes when either
// (a) the batch reaches Config.MaxBatch or (b) Config.BatchDeadline has
// elapsed since the batch's first request arrived. A Greedy deadline means:
// take whatever is queued at this instant, never wait. The high-priority
// lane is always drained first, so a low-priority flood cannot starve
// latency-critical traffic.
//
// Flushed batches go to the router, which routes each one through a
// pluggable sched.Policy (Config.Policy; nil ships sched.Production,
// currently least-loaded: fewest unanswered batches, hard-capped at
// Config.QueueDepth, tie-broken by the replica's occupancy heartbeat —
// leaders report their queue depth in every result header and immediately
// on dequeuing a backlog, so the router can tell a replica crunching a wide
// batch from one whose queue is draining). Replica groups of one rank run an
// nn.InferNet clone (shared weights and prepacks), the forward-only
// StrategyNet on a one-rank context; groups of k ranks run an
// nn.DistInferNet, the same net with its layers channel/filter-split k
// ways — the leader broadcasts the live rows of each batch to its group,
// all ranks execute the collective forward on those rows alone (padding up
// to MaxBatch is never computed or sent), and the leader sends the
// assembled answer back through its communicator's proxy engine
// (comm.Comm.Do), overlapping the result transfer with the next batch.
// Replicas and group ranks on one box split its cores while they compute:
// every kernel call borrows only the cores no other running call holds
// (kernels.SetMaxWorkers), so a lone replica spreads across the box and
// two busy ones each keep to their own share.
//
// # Admission control
//
// Overload degrades by rejecting, not by queueing: a request arriving at a
// full admission lane is shed immediately with ErrOverloaded, and a request
// whose deadline passes before the batcher can take it is shed with
// ErrExpired. Both sheds are counted (Stats.ShedFull / Stats.ShedExpired,
// /statz shed_full / shed_expired). Bounded lanes plus bounded per-replica
// in-flight batches bound the standing queue, so the p99 of the requests
// actually served stays within a small factor of the uncontended p99 under
// any overload (test-enforced at 2x under 4x-capacity load).
//
// # Front-end sharding
//
// Config.FrontEnds > 1 shards admission itself: F front-end ranks occupy
// world ranks 0..F-1, and each owns a full private admission pipeline —
// its own lanes, batcher, stats collector, policy router (a fresh
// sched.Policy instance per front-end; Config.Policy, being single-owner
// state, rides on front-end 0 and the rest instantiate sched.Production),
// and its own result/heartbeat collectors on dedicated communicator dups.
// In-process Predict round-robins across front-ends per request; binary
// connections are pinned to a front-end at accept time. All front-ends
// route to the shared replica set.
//
// Replica state stays coherent without gossip through two mechanisms:
//
//   - Heartbeat fan-out: a replica leader answers the front-end that sent
//     the batch, but fans every occupancy heartbeat to ALL front-ends, so
//     each router's occupancy view converges on the same leader-reported
//     truth. Leaders receive from all front-end ranks with a multi-source
//     timed receive (comm.RecvMultiTimeout) whose rotating start keeps one
//     busy front-end from starving another, and exit only after collecting
//     a stop sentinel from every front-end.
//   - Budget partitioning: each replica's in-flight budget is divided
//     among the front-ends — every router caps itself at
//     max(1, Config.QueueDepth/FrontEnds) unanswered batches per replica —
//     so the fleet-wide cap holds with no cross-front-end coordination on
//     the dispatch path.
//
// Per-front-end outcome counters (Stats.FrontEnds, /statz
// front_end_stats) each satisfy the conservation identity on their own;
// the aggregate is their exact sum (TestCrossFrontEndConservation drives
// both through a kill/rejoin chaos run).
//
// # Binary ingest and tenant quotas
//
// ServeBinary accepts persistent connections speaking a length-prefixed
// little-endian float32 frame protocol built for zero-allocation ingest:
//
//	request:  [payload bytes u32 | flags u32 (bit0 = high priority) |
//	           tenant u32 | deadline µs u32] + payload (InputLen floats)
//	response: [status u32 | payload bytes u32] + payload (status 0 only)
//
// Non-zero statuses map onto the Predict sentinel errors (overloaded,
// expired, canceled, unavailable, failed, quota); a frame whose length
// prefix disagrees with the model closes the connection after a
// bad-request status, since the stream can no longer be framed. Each
// connection's scratch buffers come from the kernels.Workspace arena and
// responses are encoded in place, so a warm round trip performs zero heap
// allocations process-wide (TestBinaryPredictZeroAllocs).
//
// Config.TenantRate/TenantBurst arm per-tenant token buckets consulted
// straight after the 16-byte header is read: an over-budget tenant's
// payload is discarded without parsing, the frame is refused at the
// socket with the quota status (ErrQuota, Stats.ShedQuota), and admission
// lanes are never touched — socket-level backpressure ahead of every
// other shed.
//
// # Invariants
//
//   - Zero steady-state allocations: requests, batches, staging buffers,
//     and every wire message (batch payloads, results, heartbeats) are
//     pooled; replica activations are preallocated; message-pool classes
//     are pre-seeded at fleet start. After warm-up an in-process Predict
//     performs no heap allocations end to end (TestPredictZeroAllocs).
//   - Row determinism: a request's answer is bitwise independent of the
//     batch it was coalesced into (kernels.GemmNNStable), and — for
//     filter-split shards — bitwise independent of WHICH replica answered:
//     a sharded replica's assembled output is bit-identical to an unsharded
//     one's (TestFleetShardedReplicaBitwise).
//   - Bounded latency: once a batch opens, it flushes within BatchDeadline
//     even at arrival rate zero; admission caps bound queueing on top.
//   - Close drains: every request admitted before Close resolves — served,
//     or shed by its own deadline. The stop sentinel rides the same FIFO
//     message line as batches, so leaders finish their queues first.
//   - Replicas share weights: single-rank replicas alias the model's
//     parameter storage; sharded groups slice a state snapshot captured at
//     construction. The server must be idle during a reload.
//
// # Routing policies and the scheduler lab
//
// The router's decision logic lives behind the sched.Policy interface so
// the exact same policy implementation runs here and inside the
// deterministic serving simulator (internal/sim). The contract, in full
// in internal/sched's package comment:
//
//   - Observable state is exactly what the router passes: a
//     sched.ReplicaView slice (Live, InFlight, Cap, Occ) and a
//     sched.BatchView (N, earliest rider Deadline). Policies never see
//     the clock beyond the `now` argument, never read global state, and
//     never iterate maps.
//   - Pick is pure: calling it twice in a row returns the same replica.
//     All cursor/counter state advances in OnDispatch — once per batch
//     actually dispatched, including failover re-dispatches — and in
//     OnResult/OnHeartbeat, which deliver result occupancies, backlog
//     heartbeats, and the idle heartbeat a rejoined replica announces
//     itself with. This is what makes routing deterministic: a replayed
//     sequence of events reproduces the same dispatch decisions.
//   - Pick returns -1 only when no replica is eligible (live with
//     in-flight < cap); anything else would stall the dispatcher, which
//     blocks on capacity.
//
// All hooks run under the router's lock; a Policy instance must not be
// shared between servers.
//
// The scorecard workflow: cmd/sim races every registered policy —
// least-loaded, random, jsq2/jsq3 (power-of-d-choices), edf
// (deadline-ordered dispatch), shinjuku (long-batch steering with a
// preemption budget), and the omniscient ideal lower bound — over swept
// load/fleet/tail-heaviness grids on latency curves calibrated against
// the measured `cmd/bench -exp obs` decomposition, with an optional
// replica-kill failover scenario, and emits throughput/p50/p99/p999/
// shed/fairness rows as a table and byte-stable JSON. The winner ships
// as sched.Production (the router's nil-Policy default); CI re-runs the
// quick sweep every push and fails if the shipped default drifts beyond
// a fixed factor of the ideal bound.
//
// # Failure model
//
// Replica ranks are fail-stop: a failed rank stops communicating (in tests
// and chaos runs, comm.FaultPlan kills it deterministically at a chosen
// send count), and the whole group fails together — a killed leader
// unwinds its followers through the collective they share. The front-end
// ranks are trusted (a Config.Fault plan that kills any rank below
// Config.FrontEnds is rejected).
//
// Detection runs on the server's fleet-wide failure monitor, one tick per
// Config.HeartbeatInterval, with two triggers: a batch unanswered for
// Config.BatchTimeout, or — only while the replica has nothing in flight,
// so a long forward pass is never misread as death — heartbeat silence for
// Config.FailTimeout. Detected replicas are quarantined: removed from the
// routing set, their world ranks fenced off (comm.World.Fail, which wakes
// every receive blocked on them), and their in-flight batches stranded
// onto the retry queue. Stranded batches re-dispatch to surviving replicas
// under Config.RetryBudget re-sends per batch; when the budget is
// exhausted the batch fails with ErrFailed, and with zero live replicas
// admission sheds with ErrUnavailable instead of queueing into a hole.
// Every (re)dispatch carries a fresh 24-bit sequence number and the
// collectors accept only the current one, so a batch that was failed over
// and then answered by both incarnations resolves exactly once
// (dropped_results counts the discarded duplicates) — and because every
// replica computes with row-stable kernels, the answer is bitwise
// identical no matter which replica produced it.
//
// Config.RejoinAfter later (negative disables), the monitor respawns the
// group: it joins the dead incarnation's goroutines, revives the ranks,
// drains stale communicator state, restores sharded weight shards from the
// checkpoint captured at construction, and health-probes the new leader
// until a heartbeat answers — only then does the replica take traffic
// again. Requests admitted during the outage either ride the surviving
// replicas or shed; none hang: every accepted request resolves exactly
// once through a CAS-guarded completion that also arbitrates
// context-cancellation races (PredictOptions.Ctx).
//
// # Observability
//
// The server keeps lock-free histograms (request latency at eighth-log2
// resolution, batch occupancy), shed and failure counters (retries,
// failovers, quarantines, rejoins, dropped results), per-replica gauges
// (ranks, batches served, in-flight, heartbeat queue depth, liveness
// state), and process-health gauges (goroutines, GC pause total, heap in
// use). Stats() snapshots them; the HTTP layer exposes them at /statz
// alongside /healthz — which reports "ok", "degraded" (200, some replicas
// quarantined but the fleet is serving), or 503 with zero live replicas —
// and POST /v1/predict.
//
// Request time is decomposed by pipeline stage: queue wait (admission to
// batch membership) and batch wait (batch open to dispatch) on the front
// end. Batch wait ends when the batch hits the wire, after the router has
// waited for an in-flight slot, so it contains the route stage: a sum of
// the stages counts the route wait twice. Route, wire, compute, and gather
// come from timing fields the wire protocol carries in its headers — the
// dispatch timestamp rides out with each batch, and the leader reports
// wire and compute microseconds back in the result header, so the
// decomposition costs no extra messages. Wire and
// gather are wall-clock intervals between two goroutines: besides the
// transfer they hold the time the receiving goroutine (replica leader,
// front-end collector) waits for a core, so on a box with fewer cores than
// busy goroutines they grow with scheduling contention that no stage
// names. Wire also holds the time a batch sits in the leader's mailbox
// behind earlier in-flight batches; on a saturated replica it reads close
// to compute. Each stage gets its own always-on histogram (recording is
// two atomic adds); /statz reports per-stage p50/p90/p99 and GET /metrics
// exports everything in Prometheus text format (serve_*_total counters,
// serve_request_latency_seconds and serve_stage_latency_seconds{stage=...}
// histograms at octave resolution, go_* process gauges).
//
// On top of the aggregates sits the flight recorder (internal/obs): an
// always-compiled-in, zero-allocation tracer whose disabled cost is one
// atomic load per hook. When enabled it records spans for the request
// lifecycle on the front-end track (admission, batch formation, route,
// gather), wire and compute on each replica leader's track, per-layer and
// GEMM/im2col phases on every replica rank, and comm sends/collectives —
// all tagged with the batch's sequence number, so one request correlates
// across layers and ranks. GET /tracez?dur=1s (or cmd/serve -trace-out)
// captures a window and emits Chrome trace-event JSON: load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing, one track per comm rank. The
// calibration loop `bench -exp obs` prints the measured stage
// decomposition next to the performance model's ServeStages prediction.
// cmd/serve -pprof adds net/http/pprof under /debug/pprof/ on the same
// listener.
package serve
