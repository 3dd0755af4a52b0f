// Package sched defines the pluggable replica-routing policy interface
// shared by the production serving router (internal/serve) and the
// deterministic fleet simulator (internal/sim): the exact same policy
// implementation routes batches in both, so a policy that wins a simulated
// race drops straight into production.
//
// # Contract
//
// A Policy is four methods, always called under the caller's router lock
// (implementations need no internal locking):
//
//	Name         the registry name
//	Reset        (re)initialize for a fleet of n replicas and a seed
//	Pick         choose the replica for one flushed batch
//	OnDispatch   a batch was sent to the picked replica
//
// The ReplicaView slice passed to Pick is the only fleet state a policy may
// read: liveness, the dispatcher-side in-flight count and its cap, and the
// replica's last occupancy heartbeat. Policies must not retain the slice
// past the call. The one extension is Oracle: the simulator binds it to
// policies implementing OmniscientPolicy, so the ideal bound can read the
// true remaining work no production router can observe.
//
// # Determinism requirements
//
// Policies run inside the simulator's bitwise-reproducible event loop, so
// every implementation must be deterministic: no wall-clock reads (the
// caller supplies now), no global rand (seed private state from
// Reset(n, seed) via Rand), no map iteration, and no state mutation outside
// Reset and OnDispatch. Pick must be a pure function of the policy's
// state and its arguments. In particular, tie-break rotation state (e.g.
// LeastLoaded's round-robin cursor) advances in OnDispatch — once per batch
// actually dispatched — never inside Pick, so calling Pick twice in a row
// returns the same answer and retries rotate exactly like first dispatches.
//
// Pick must return -1 only when no replica is eligible (live with in-flight
// headroom): returning -1 while an eligible replica exists may stall the
// production dispatcher, which blocks until the next result frees capacity.
package sched

import (
	"fmt"
	"sort"
)

// ReplicaView is the routing-relevant state of one replica, snapshotted by
// the router under its lock for the duration of a Pick call.
type ReplicaView struct {
	// Live reports whether the replica is routable (not quarantined or
	// rejoining).
	Live bool
	// InFlight is the dispatcher-side count of batches sent to the replica
	// whose results have not come back.
	InFlight int
	// Cap is the in-flight limit: a replica with InFlight >= Cap is not
	// eligible.
	Cap int
	// Occ is the replica's last occupancy heartbeat: batches queued or
	// executing replica-side. It lags InFlight (heartbeats ride results),
	// which is why it is the tie-break, not the primary signal.
	Occ int
}

// eligible reports whether the replica may take another batch.
func (v ReplicaView) eligible() bool { return v.Live && v.InFlight < v.Cap }

// BatchView is what a policy may observe about the batch being routed.
type BatchView struct {
	// N is the number of requests coalesced into the batch.
	N int
}

// Policy routes flushed batches to replicas. See the package comment for
// the determinism contract. All methods are called under the router's lock.
type Policy interface {
	// Name is the policy's registry name (stable, used in scorecards).
	Name() string
	// Reset (re)initializes the policy for a fleet of n replicas,
	// reseeding any internal randomness from seed. Called once before
	// traffic starts.
	Reset(n int, seed int64)
	// Pick returns the replica for batch b, or -1 when no replica is
	// eligible. now is nanoseconds on the caller's clock.
	Pick(now int64, b BatchView, reps []ReplicaView) int
	// OnDispatch records that a batch of n requests was sent to replica g.
	OnDispatch(g int, now int64, n int)
}

// Oracle exposes omniscient fleet state to the ideal lower-bound policy:
// the true remaining work (nanoseconds of service) queued at a replica.
// Only the simulator can implement it; production routers never bind one.
type Oracle interface {
	RemainingWork(g int) int64
}

// OmniscientPolicy is implemented by policies that consume an Oracle.
type OmniscientPolicy interface {
	BindOracle(o Oracle)
}

// Production is the registry name of the shipped production default: the
// winner of the fleet-scheduler lab's sweep (cmd/sim). The lab's CI smoke
// re-checks every run that it stays within a fixed factor of the
// omniscient ideal bound; see internal/serve/doc.go for the promotion
// workflow.
const Production = "least-loaded"

// builders is the policy registry: a static table, not init-time
// registration, so construction stays deterministic.
var builders = map[string]func() Policy{
	"least-loaded": func() Policy { return NewLeastLoaded() },
	"random":       func() Policy { return NewRandom() },
	"jsq2":         func() Policy { return NewJSQ(2) },
	"jsq3":         func() Policy { return NewJSQ(3) },
	"ideal":        func() Policy { return NewIdeal() },
}

// New constructs a registered policy by name.
func New(name string) (Policy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, Names())
	}
	return b(), nil
}

// Names lists the registered policy names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
