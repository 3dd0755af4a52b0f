package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Deterministic fault injection. A World always carries a faultState (inert
// by default: one atomic load per send and per receive wait); installing a
// FaultPlan arms it. Faults model the two failure classes a serving fleet
// must survive:
//
//   - Message chaos: seeded drop / duplicate / delay of individual user-tag
//     messages. Collective-tag traffic is exempt — collectives assume
//     reliable FIFO channels (as MPI does over its transport), so chaos is
//     applied where real systems apply it: to the application protocol.
//     Each sending rank draws from its own rand.Rand seeded Seed+rank, so
//     a rank's fault sequence is a deterministic function of its own send
//     sequence, independent of cross-rank scheduling.
//
//   - Hard kill: a rank dies at its Nth send (counting every wire message
//     the rank emits, collectives included), or immediately via World.Fail.
//     Death is fail-stop: the rank's next communication operation panics
//     with an internal sentinel that RecoverKilled converts into a clean
//     goroutine exit, and every rank blocked receiving from the dead peer
//     is woken (RecvTimeout returns ErrPeerDead; a plain Recv fails the
//     receiving rank too, MPI-abort style, since it could never complete).
//
// World.Revive clears the dead flag and the rank's consumed kill trigger so
// a supervisor can restart the rank's goroutines (after draining stale
// mailbox state with Comm.DrainAll).

// ErrTimeout is returned by RecvTimeout when the deadline passes with no
// matching message.
var ErrTimeout = errors.New("comm: receive timed out")

// ErrPeerDead is returned by RecvTimeout when the source rank is marked
// failed: no message can arrive, so waiting on is pointless.
var ErrPeerDead = errors.New("comm: peer rank failed")

// FaultPlan is a deterministic fault-injection schedule for a World.
// Probabilities apply per user-tag message on the sending side; Kill counts
// every message the rank sends. The zero value injects nothing.
type FaultPlan struct {
	// Seed seeds the per-rank fault RNGs (rank r draws from Seed+r).
	Seed int64
	// Drop is the probability a user-tag message is silently discarded.
	Drop float64
	// Dup is the probability a user-tag message is delivered twice.
	Dup float64
	// Delay is the probability a user-tag message is deferred by a uniform
	// random duration in (0, MaxDelay], breaking FIFO on its line.
	Delay float64
	// MaxDelay bounds injected delays; defaults to 1ms when Delay > 0.
	MaxDelay time.Duration
	// Kill maps a world rank to the 1-based send count at which it dies.
	Kill map[int]int
}

// killedPanic is the fail-stop sentinel: communication operations on a dead
// rank panic with it, and RecoverKilled unwinds the rank goroutine cleanly.
type killedPanic struct{ rank int }

func (k killedPanic) String() string {
	return fmt.Sprintf("comm: rank %d killed by fault injection", k.rank)
}

// RecoverKilled converts a fault-injection kill panic into a clean return.
// Defer it at the top of every rank goroutine that may be hard-killed;
// any other panic is re-raised.
func RecoverKilled() {
	if r := recover(); r != nil {
		if _, ok := r.(killedPanic); !ok {
			panic(r)
		}
	}
}

// faultState is a World's fault machinery. The inert fast path costs one
// atomic load per operation; mu guards the plan, counters, and RNGs.
type faultState struct {
	world  *World
	active atomic.Bool // kill counting or chaos armed

	mu       sync.Mutex
	chaos    bool
	drop     float64
	dup      float64
	delay    float64
	maxDelay time.Duration
	kill     []int64 // per world rank: die at this 1-based send; 0 = never
	sent     []int64
	rng      []*rand.Rand

	dead []atomic.Bool
}

func newFaultState(w *World) *faultState {
	return &faultState{
		world: w,
		kill:  make([]int64, w.size),
		sent:  make([]int64, w.size),
		rng:   make([]*rand.Rand, w.size),
		dead:  make([]atomic.Bool, w.size),
	}
}

// SetFaultPlan installs (or replaces) the world's fault-injection plan.
// Install before any traffic flows — typically right after NewWorld; a nil
// plan is a no-op.
func (w *World) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		return
	}
	f := w.fault
	f.mu.Lock()
	f.drop, f.dup, f.delay = p.Drop, p.Dup, p.Delay
	f.maxDelay = p.MaxDelay
	if f.maxDelay <= 0 {
		f.maxDelay = time.Millisecond
	}
	f.chaos = p.Drop > 0 || p.Dup > 0 || p.Delay > 0
	for r := range f.kill {
		f.kill[r] = 0
	}
	armed := f.chaos
	for r, n := range p.Kill {
		if r >= 0 && r < len(f.kill) && n > 0 {
			f.kill[r] = int64(n)
			armed = true
		}
	}
	if f.chaos && f.rng[0] == nil {
		for r := range f.rng {
			f.rng[r] = rand.New(rand.NewSource(p.Seed + int64(r)))
		}
	}
	f.mu.Unlock()
	f.active.Store(armed)
}

// Fail marks a world rank dead immediately, as if it had hit its kill
// count: its next communication operation panics (see RecoverKilled), and
// every goroutine blocked receiving from it is woken. The serving runtime's
// quarantine path uses this to fence off an unresponsive replica.
func (w *World) Fail(rank int) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: fail rank %d out of range [0,%d)", rank, w.size))
	}
	w.fault.markDead(rank)
}

// Revive clears rank's dead flag and its consumed kill trigger so fresh
// goroutines may serve the rank again. The caller is responsible for
// discarding the rank's stale mailbox state first (Comm.DrainAll) and for
// ensuring the previous incarnation's goroutines have exited.
func (w *World) Revive(rank int) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: revive rank %d out of range [0,%d)", rank, w.size))
	}
	f := w.fault
	f.mu.Lock()
	f.kill[rank] = 0
	f.sent[rank] = 0
	f.mu.Unlock()
	f.dead[rank].Store(false)
}

// markDead flips the dead flag and wakes every blocked receiver in the
// world so wait loops re-check their peer's liveness.
func (f *faultState) markDead(rank int) {
	f.dead[rank].Store(true)
	for _, mb := range f.world.mailboxes {
		mb.mu.Lock()
		for _, q := range mb.queues {
			q.cond.Broadcast()
		}
		if mb.multiWaiters > 0 {
			mb.multi.Broadcast()
		}
		mb.mu.Unlock()
	}
}

// inject runs the armed fault schedule for one send from world rank self:
// count toward the kill trigger, then (for user-tag messages) draw the
// chaos outcomes. Exactly three draws per chaotic message keep the per-rank
// RNG stream aligned with the rank's user-message sequence.
func (f *faultState) inject(self int, mb *mailbox, src, tag int, data []float32) {
	f.mu.Lock()
	f.sent[self]++
	if k := f.kill[self]; k > 0 && f.sent[self] >= k {
		f.mu.Unlock()
		f.markDead(self)
		recycle(tag, data)
		panic(killedPanic{self})
	}
	if !f.chaos || tag&(1<<20-1) >= tagCollBase {
		f.mu.Unlock()
		mb.put(src, tag, data)
		return
	}
	rng := f.rng[self]
	drop := rng.Float64() < f.drop
	dup := rng.Float64() < f.dup
	var delay time.Duration
	if rng.Float64() < f.delay {
		delay = 1 + time.Duration(rng.Int63n(int64(f.maxDelay)))
	}
	f.mu.Unlock()
	if drop {
		putBuf(data)
		return
	}
	if dup {
		cp := getBuf(len(data))
		copy(cp, data)
		mb.put(src, tag, cp)
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { mb.put(src, tag, data) })
		return
	}
	mb.put(src, tag, data)
}
