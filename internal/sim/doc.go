// Package sim is the fleet-scheduler lab: a deterministic discrete-event
// simulator of the serving runtime (internal/serve) that races routing
// policies (internal/sched) on fleets and traffic no 1-core dev box could
// ever host live — hundreds of replicas, millions of requests per
// simulated minute, heavy-tailed service mixes, replica failures — and
// emits a policy scorecard the production router's default is chosen from.
// This is the paper's core move applied to scheduling: calibrate an
// analytic model against what you can measure, then use it to choose an
// execution policy you cannot afford to measure at scale, and promote the
// winner back to the real system.
//
// # Model
//
// A World replays the serving pipeline on a single event heap:
//
//	arrivals -> front-end admission (FrontEnds x AdmitNS, FCFS)
//	  -> admission bound -> forming batch (MaxBatch / BatchDeadline)
//	  -> dispatch queue -> sched.Policy.Pick -> wire -> replica FIFO queue
//	  -> service (perfmodel.ServeStages latency curves) -> gather -> done
//
// The admission stage mirrors serve.Config.FrontEnds' sharded front-ends:
// each arrival is parsed and admitted by the earliest-free of FrontEnds
// parallel servers at AdmitNS ns apiece, so the stage caps sustainable
// throughput at FrontEnds/AdmitNS and queueing past that ceiling burns
// request deadlines before batching even starts. AdmitNS 0 (the default)
// skips the stage, replaying older configs byte-identically.
//
// Replica batch latency comes from Curve, tabulated per batch size from
// perfmodel.ServeStages' analytic wire/compute/gather stages and
// calibrated against the measured `cmd/bench -exp obs` decomposition (see
// CurveFromModel and Curve.Scale; the calibration golden test in
// internal/bench pins the simulator's predictions to the measured fleet
// within a tolerance band). Multi-rank (sharded) replica groups are priced
// at their live batch split across the group's ranks plus the group
// collective, since nn.DistInferNet, like the 1-rank nn.InferNet, is the
// forward-only StrategyNet and computes only a batch's live rows.
//
// Traffic is open-loop and seeded: Poisson or 2-state MMPP (bursty)
// arrivals, optional diurnal rate modulation, per-request work factors
// drawn from a lognormal body with an optional Pareto tail, tenants drawn
// from a Zipf-skewed distribution, and optional per-request deadlines.
// The same seed produces bitwise-identical arrival streams, so policies
// race on paired traces.
//
// The failure model reuses comm.FaultPlan semantics: Kill maps a world
// rank (serve's layout: rank 0 front-end, groups packed after it) to the
// 1-based result-send count at which its whole replica group fails; Drop
// is the probability a dispatched batch message is lost. Failed batches
// strand at detection (DetectDelay models FailTimeout plus the monitor
// tick), retry under the retry budget, and replicas rejoin after
// RejoinAfter — the same quarantine/failover/rejoin lifecycle the
// production monitor runs, so policy robustness under failover is part of
// the scorecard.
//
// # Determinism
//
// Same seed, bitwise-same results: the event heap breaks time ties by
// insertion sequence, all randomness flows from seeded splitmix64 streams
// (sched.Rand), policies obey the determinism contract in internal/sched,
// nothing reads the wall clock, and scorecards serialize through ordered
// structs — a same-seed double run of a full sweep produces byte-identical
// scorecard JSON (test-enforced).
package sim
