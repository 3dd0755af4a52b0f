// Package comm is the communication substrate substituting for
// MPI + Aluminum + NCCL in the paper's implementation (Section IV). A World
// hosts P ranks inside one process; each rank runs on its own goroutine and
// exchanges messages through mailboxes. Point-to-point sends are eager
// (buffered, non-blocking) and receives block, exactly the progress
// guarantees the collective algorithms below rely on.
//
// Collectives are built on top of point-to-point messages: Allreduce (and
// its non-blocking IAllreduce), ReduceScatterStableSlabs, Allgather,
// AlltoAllV, Bcast and Barrier. There is one reduction algorithm: the owner
// of each chunk folds every rank's contribution in rank order, so every
// reduction is bitwise equal to the serial fold ((x0 op x1) op x2) ... op
// x_{p-1}, whatever the buffer length, fusion or rank count. Allreduce is
// that reduce-scatter followed by the ring allgather.
//
// Two properties matter for training-step performance:
//
//   - Non-blocking collectives (the Aluminum model): IAllreduce enqueues the
//     operation on a per-communicator proxy goroutine and returns a Request
//     handle; the rank's compute goroutine keeps running while the proxy
//     makes communication progress, and Wait completes the handle. Every
//     rank of a communicator must submit the same sequence of non-blocking
//     collectives (MPI ordering semantics); proxy traffic lives in its own
//     tag space, so it interleaves freely with blocking sends, receives, and
//     collectives issued from compute goroutines.
//
//   - Pooled messages: payloads are borrowed from a size-bucketed free list
//     (Send copies into a pooled buffer, Recv hands it out, Release returns
//     it), and the mailbox matches on per-(source, tag) sub-queues instead
//     of scanning one linear queue, so warm exchanges and collectives run at
//     zero heap allocations per operation with O(1) matching regardless of
//     how many unrelated messages are queued.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// msgKey identifies one matching line of a mailbox. Receives in this
// substrate always name an exact (source, tag) pair — there is no
// MPI_ANY_SOURCE — so the matching structure can be a map of independent
// FIFO sub-queues: put and get are O(1) in the number of queued messages,
// where the former single linear queue degraded linearly as unrelated
// traffic (other tags, other phases, proxy collectives) piled up.
type msgKey struct {
	src, tag int
}

// subQueue is the FIFO of payloads for one (source, tag) line. Delivered
// payloads are owned by the receiver once popped; senders always copy (or
// explicitly hand over ownership via SendNoCopy). head/buf form a re-usable
// queue: when the queue drains, both reset so warm traffic re-uses the
// backing array instead of allocating.
type subQueue struct {
	cond sync.Cond // waiters for this line only; L is the mailbox mutex
	buf  [][]float32
	head int
}

// mailbox is an unbounded MPI-style matching queue: receives match on
// (source, tag) and block until a matching message arrives. multi is the
// wait channel for receivers blocked across several lines at once
// (RecvMultiTimeout): put broadcasts it only while such a waiter exists
// (multiWaiters > 0), so single-line traffic pays nothing beyond one
// integer compare.
type mailbox struct {
	mu           sync.Mutex
	queues       map[msgKey]*subQueue
	multi        sync.Cond // L is mu
	multiWaiters int
}

func newMailbox() *mailbox {
	mb := &mailbox{queues: make(map[msgKey]*subQueue)}
	mb.multi.L = &mb.mu
	return mb
}

// line returns (creating on first use) the sub-queue for key. Caller holds
// mb.mu.
func (mb *mailbox) line(key msgKey) *subQueue {
	q := mb.queues[key]
	if q == nil {
		q = &subQueue{}
		q.cond.L = &mb.mu
		mb.queues[key] = q
	}
	return q
}

func (mb *mailbox) put(src, tag int, data []float32) {
	mb.mu.Lock()
	q := mb.line(msgKey{src, tag})
	q.buf = append(q.buf, data)
	q.cond.Signal()
	if mb.multiWaiters > 0 {
		mb.multi.Broadcast()
	}
	mb.mu.Unlock()
}

// pop removes the line's head message; ok reports whether one was present.
// Caller holds the mailbox mutex.
func (q *subQueue) pop() (data []float32, ok bool) {
	if q.head == len(q.buf) {
		return nil, false
	}
	data = q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return data, true
}

// tryGet pops a queued message for key without blocking; ok reports whether
// one was present.
func (mb *mailbox) tryGet(src, tag int) (data []float32, ok bool) {
	mb.mu.Lock()
	data, ok = mb.line(msgKey{src, tag}).pop()
	mb.mu.Unlock()
	return data, ok
}

func (mb *mailbox) get(src, tag int) []float32 {
	mb.mu.Lock()
	q := mb.line(msgKey{src, tag})
	for {
		if data, ok := q.pop(); ok {
			mb.mu.Unlock()
			return data
		}
		q.cond.Wait()
	}
}

// World is a set of ranks that can communicate. It corresponds to
// MPI_COMM_WORLD: create one per simulated job and derive sub-communicators
// with Comm.Split.
type World struct {
	size      int
	mailboxes []*mailbox
	fault     *faultState

	splitMu  sync.Mutex
	splitIDs map[splitKey]int64
	nextComm int64

	engMu   sync.Mutex
	engines []*engine
}

// splitKey identifies one color group of one Split call on one communicator:
// every member of the group computes the same key, so the world can hand all
// of them the same fresh communicator id without any messaging.
type splitKey struct {
	parent int64
	epoch  int64
	color  int
}

// NewWorld creates a world with size ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size %d must be positive", size))
	}
	w := &World{size: size, mailboxes: make([]*mailbox, size), splitIDs: make(map[splitKey]int64)}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	w.fault = newFaultState(w)
	return w
}

// Comm returns the world communicator handle for the given rank. Each rank
// goroutine should obtain its own handle.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.size))
	}
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{world: w, group: group, rank: rank, id: 0}
}

// Run spawns fn on a goroutine per rank and waits for all to finish. It is
// the standard harness for SPMD tests and programs. Communication proxy
// goroutines started by non-blocking collectives during fn are drained and
// stopped before Run returns.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	w.Shutdown()
}

// registerEngine records a proxy engine for end-of-Run shutdown.
func (w *World) registerEngine(e *engine) {
	w.engMu.Lock()
	w.engines = append(w.engines, e)
	w.engMu.Unlock()
}

// Shutdown drains and stops every communication proxy goroutine started by
// non-blocking collectives. Run calls it automatically; call it directly
// only when driving rank goroutines by hand. Outstanding operations are
// completed first, which requires every rank to have submitted matching
// sequences (the usual collective contract) — a mismatched program hangs
// here just as it would hang inside a blocking collective.
func (w *World) Shutdown() {
	w.engMu.Lock()
	engines := w.engines
	w.engines = nil
	w.engMu.Unlock()
	for _, e := range engines {
		e.shutdown()
	}
}

// Comm is a communicator: an ordered group of world ranks with an isolated
// tag space. Rank numbers passed to Comm methods are group-relative.
// A Comm handle belongs to a single rank goroutine and is not safe for
// concurrent use by multiple goroutines (like an MPI communicator used from
// one thread); the proxy goroutine behind non-blocking collectives holds its
// own shadow handle.
type Comm struct {
	world      *World
	group      []int // group[i] = world rank of communicator rank i
	rank       int   // my rank within the group
	id         int64 // communicator id, isolates tag spaces
	splitEpoch int64 // number of Split calls performed on this handle
	eng        *engine
	timers     map[msgKey]*time.Timer // cached RecvTimeout timers, one per line
	mtimer     *time.Timer            // cached RecvMultiTimeout wakeup timer
	multiRR    int                    // multi-receive fairness rotation cursor

	// traceID tags flight-recorder spans emitted by this handle with a
	// request correlation id (the serving layer's batch seq). Atomic
	// because the serve leader's result send runs on the proxy-engine
	// goroutine while the compute goroutine updates the id per batch.
	traceID atomic.Uint64
}

// SetTraceID tags subsequent flight-recorder spans from this handle with a
// request correlation id (0 = untagged). Dup'd and Split handles start at 0.
func (c *Comm) SetTraceID(id uint64) { c.traceID.Store(id) }

// obsClass derives the flight-recorder tag class of traffic on this handle:
// proxy-engine shadow communicators carry proxyCommBit in their id,
// collective tags live at or above tagCollBase, anything else is user
// point-to-point traffic.
func (c *Comm) obsClass(tag int) obs.Class {
	if c.id&proxyCommBit != 0 {
		return obs.ClassProxy
	}
	if tag >= tagCollBase {
		return obs.ClassColl
	}
	return obs.ClassUser
}

// obsColl records one collective span on the caller's world-rank track.
// Nil-ring and disabled (start == 0) paths fall through inside Record.
func (c *Comm) obsColl(st obs.Stage, start int64, words int) {
	obs.RingFor(c.group[c.rank]).Record(st, obs.ClassColl, c.traceID.Load(), start, int64(words)*4)
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// tagOf folds the communicator id into the tag so traffic on different
// communicators never matches.
func (c *Comm) tagOf(tag int) int {
	if tag < 0 || tag >= 1<<20 {
		panic(fmt.Sprintf("comm: tag %d out of range", tag))
	}
	return int(c.id)<<20 | tag
}

// Send delivers a copy of data to rank dst (group-relative) with the given
// tag. Send is eager and never blocks; the copy lives in a pooled buffer
// that the receiver can hand back with Release.
func (c *Comm) Send(dst, tag int, data []float32) {
	cp := getBuf(len(data))
	copy(cp, data)
	c.SendNoCopy(dst, tag, cp)
}

// SendNoCopy delivers data without copying; the caller must not reuse the
// slice afterwards. Use for freshly filled transfer buffers on hot paths
// (pair with GetBuf so the receiver's Release recycles the storage).
func (c *Comm) SendNoCopy(dst, tag int, data []float32) {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("comm: send to rank %d out of range [0,%d)", dst, len(c.group)))
	}
	f := c.world.fault
	self := c.group[c.rank]
	if f.dead[self].Load() {
		putBuf(data)
		panic(killedPanic{self})
	}
	t := obs.Start()
	nbytes := int64(len(data)) * 4
	mb := c.world.mailboxes[c.group[dst]]
	if f.active.Load() {
		f.inject(self, mb, c.rank, c.tagOf(tag), data)
	} else {
		mb.put(c.rank, c.tagOf(tag), data)
	}
	if t != 0 {
		obs.RingFor(self).Record(obs.StageSend, c.obsClass(tag), c.traceID.Load(), t, nbytes)
	}
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. The returned slice is owned by the caller; pass it
// to Release once consumed to keep warm traffic allocation-free.
//
// If src is (or becomes) a failed rank, the receive could never complete,
// so the calling rank fails too (MPI-abort style): Recv panics with the
// kill sentinel that RecoverKilled unwinds. Collectors that must survive
// peer death use RecvTimeout, which returns ErrPeerDead instead.
func (c *Comm) Recv(src, tag int) []float32 {
	data, err := c.recvWait(src, tag, false, 0)
	if err != nil {
		panic(killedPanic{c.group[c.rank]})
	}
	return data
}

// RecvTimeout is Recv with a deadline: it returns ErrTimeout when d elapses
// with no matching message, and ErrPeerDead when src is marked failed. The
// per-line timer is cached on the handle, so warm timed receives allocate
// nothing.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) ([]float32, error) {
	return c.recvWait(src, tag, true, d)
}

// RecvMultiTimeout waits for a message with the given tag from ANY of the
// listed source ranks and returns the payload together with the source it
// came from. Matching rotates its starting source on every successful
// receive, so no single busy source can starve the others. It returns
// ErrTimeout when d elapses with no matching message on any line, and
// ErrPeerDead only once EVERY listed source is marked failed (a single
// dead source is skipped — the survivors can still deliver). The wakeup
// timer is cached on the handle, so warm multi-receives allocate nothing.
//
// The serving replica leaders use this to take batches from N sharded
// front-ends over one tag without polling: FIFO order is preserved per
// (source, tag) line, which is all the wire protocol requires.
func (c *Comm) RecvMultiTimeout(srcs []int, tag int, d time.Duration) (data []float32, src int, err error) {
	if len(srcs) == 0 {
		panic("comm: RecvMultiTimeout needs at least one source")
	}
	if len(srcs) == 1 {
		data, err = c.recvWait(srcs[0], tag, true, d)
		return data, srcs[0], err
	}
	for _, s := range srcs {
		if s < 0 || s >= len(c.group) {
			panic(fmt.Sprintf("comm: recv from rank %d out of range [0,%d)", s, len(c.group)))
		}
	}
	f := c.world.fault
	self := c.group[c.rank]
	if f.dead[self].Load() {
		panic(killedPanic{self})
	}
	t := obs.Start()
	tagged := c.tagOf(tag)
	mb := c.world.mailboxes[self]
	tm := c.multiTimer(mb)
	deadline := time.Now().Add(d)
	tm.Reset(d)
	mb.mu.Lock()
	for {
		for i := range srcs {
			s := srcs[(c.multiRR+i)%len(srcs)]
			if data, ok := mb.line(msgKey{s, tagged}).pop(); ok {
				c.multiRR++
				mb.mu.Unlock()
				tm.Stop()
				c.obsRecvWait(t, tag, data)
				return data, s, nil
			}
		}
		if f.dead[self].Load() {
			mb.mu.Unlock()
			tm.Stop()
			panic(killedPanic{self})
		}
		allDead := true
		for _, s := range srcs {
			if !f.dead[c.group[s]].Load() {
				allDead = false
				break
			}
		}
		if allDead {
			mb.mu.Unlock()
			tm.Stop()
			return nil, -1, ErrPeerDead
		}
		if !time.Now().Before(deadline) {
			mb.mu.Unlock()
			tm.Stop()
			return nil, -1, ErrTimeout
		}
		mb.multiWaiters++
		mb.multi.Wait()
		mb.multiWaiters--
	}
}

// multiTimer returns (creating and caching on first use) the handle's
// wakeup timer for multi-source receives. Like lineTimer, the callback
// only broadcasts; RecvMultiTimeout decides timeout by the clock.
func (c *Comm) multiTimer(mb *mailbox) *time.Timer {
	if c.mtimer == nil {
		c.mtimer = time.AfterFunc(time.Hour, func() {
			mb.mu.Lock()
			if mb.multiWaiters > 0 {
				mb.multi.Broadcast()
			}
			mb.mu.Unlock()
		})
		c.mtimer.Stop()
	}
	return c.mtimer
}

// recvWait is the shared receive wait loop: fault-aware and optionally
// deadline-bounded. A lost timer wakeup cannot strand the loop: the
// deadline is re-checked against the clock before every Wait, and the
// timer only fires at (or after) the deadline.
func (c *Comm) recvWait(src, tag int, timed bool, d time.Duration) ([]float32, error) {
	if src < 0 || src >= len(c.group) {
		panic(fmt.Sprintf("comm: recv from rank %d out of range [0,%d)", src, len(c.group)))
	}
	f := c.world.fault
	self := c.group[c.rank]
	if f.dead[self].Load() {
		panic(killedPanic{self})
	}
	t := obs.Start()
	srcW := c.group[src]
	mb := c.world.mailboxes[self]
	key := msgKey{src, c.tagOf(tag)}
	mb.mu.Lock()
	q := mb.line(key)
	if data, ok := q.pop(); ok {
		mb.mu.Unlock()
		c.obsRecvWait(t, tag, data)
		return data, nil
	}
	var tm *time.Timer
	var deadline time.Time
	if timed {
		mb.mu.Unlock()
		tm = c.lineTimer(mb, key)
		deadline = time.Now().Add(d)
		tm.Reset(d)
		mb.mu.Lock()
	}
	for {
		if data, ok := q.pop(); ok {
			mb.mu.Unlock()
			if tm != nil {
				tm.Stop()
			}
			c.obsRecvWait(t, tag, data)
			return data, nil
		}
		if f.dead[self].Load() {
			mb.mu.Unlock()
			if tm != nil {
				tm.Stop()
			}
			panic(killedPanic{self})
		}
		if f.dead[srcW].Load() {
			mb.mu.Unlock()
			if tm != nil {
				tm.Stop()
			}
			return nil, ErrPeerDead
		}
		if timed && !time.Now().Before(deadline) {
			mb.mu.Unlock()
			tm.Stop()
			return nil, ErrTimeout
		}
		q.cond.Wait()
	}
}

// obsRecvWait records one receive-wait span: how long the caller blocked
// before the matching message arrived (near-zero on the fast path). t is
// the Start token captured at recvWait entry; zero means tracing was off.
func (c *Comm) obsRecvWait(t int64, tag int, data []float32) {
	if t == 0 {
		return
	}
	obs.RingFor(c.group[c.rank]).Record(obs.StageRecv, c.obsClass(tag), c.traceID.Load(), t, int64(len(data))*4)
}

// lineTimer returns (creating and caching on first use) the handle's wakeup
// timer for one receive line. The timer's callback only broadcasts the
// line's condition variable; recvWait decides timeout by the clock.
func (c *Comm) lineTimer(mb *mailbox, key msgKey) *time.Timer {
	t := c.timers[key]
	if t == nil {
		if c.timers == nil {
			c.timers = make(map[msgKey]*time.Timer)
		}
		mb.mu.Lock()
		q := mb.line(key)
		mb.mu.Unlock()
		t = time.AfterFunc(time.Hour, func() {
			mb.mu.Lock()
			q.cond.Broadcast()
			mb.mu.Unlock()
		})
		t.Stop()
		c.timers[key] = t
	}
	return t
}

// TryRecv returns a queued message from src with the given tag without
// blocking; ok reports whether one was waiting. Pair with Recv to drain a
// line opportunistically — the serving replica loop drains its batch queue
// this way so its occupancy heartbeats report real queue depth.
func (c *Comm) TryRecv(src, tag int) (data []float32, ok bool) {
	if src < 0 || src >= len(c.group) {
		panic(fmt.Sprintf("comm: tryrecv from rank %d out of range [0,%d)", src, len(c.group)))
	}
	if self := c.group[c.rank]; c.world.fault.dead[self].Load() {
		panic(killedPanic{self})
	}
	return c.world.mailboxes[c.group[c.rank]].tryGet(src, c.tagOf(tag))
}

// DrainAll discards every message queued for this rank across ALL
// communicators — derived splits, duplicates, and proxy shadows included —
// returning the payloads to the message pool, and reports how many it
// dropped. Recovery paths need every communicator drained: a network
// sharded over a group communicator splits further sub-communicators
// internally (core.NewCtx's Spatial/Chan/ChanPeers), and a message a killed
// incarnation left on one of those lines would silently offset the next
// incarnation's fixed-tag gathers by a whole iteration.
// Call it while re-initialising a revived rank, when no goroutine of any
// communicator over this rank is sending to or receiving on it, after
// first consuming any control messages (stop sentinels) the caller must
// not lose.
func (c *Comm) DrainAll() int {
	mb := c.world.mailboxes[c.group[c.rank]]
	n := 0
	mb.mu.Lock()
	for _, q := range mb.queues {
		for {
			data, ok := q.pop()
			if !ok {
				break
			}
			putBuf(data)
			n++
		}
	}
	mb.mu.Unlock()
	return n
}

// Dup returns an independent handle to the same communicator for use by
// another goroutine. Mailbox traffic (Send/Recv/TryRecv/Release) through a
// duplicate is safe concurrently with the original; collective operations,
// Split, and the proxy engine remain single-goroutine per handle. The
// split epoch carries over so a Split on the duplicate cannot mint a
// communicator id that collides with one the original already created.
// The serving front-end hands one duplicate to each of its collector
// goroutines.
func (c *Comm) Dup() *Comm {
	return &Comm{world: c.world, group: c.group, rank: c.rank, id: c.id, splitEpoch: c.splitEpoch}
}

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, old rank). Every rank
// of c must call Split with the same sequence of collective operations.
// A negative color returns nil (the rank is in no new communicator).
func (c *Comm) Split(color, key int) *Comm {
	c.splitEpoch++
	// Gather (color, key) pairs from everyone via an allgather.
	pairs := make([]float32, 2*len(c.group))
	pairs[2*c.rank] = float32(color)
	pairs[2*c.rank+1] = float32(key)
	c.Allgather(pairs, 2, tagSplit)

	if color < 0 {
		return nil
	}
	type entry struct{ key, rank int }
	var members []entry
	for r := 0; r < len(c.group); r++ {
		if int(pairs[2*r]) == color {
			members = append(members, entry{int(pairs[2*r+1]), r})
		}
	}
	// Insertion sort by (key, rank) — groups are small.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	group := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	// Every member of this color group computes the same (parent, epoch,
	// color) key and receives the same fresh id from the world registry.
	id := c.world.splitID(splitKey{parent: c.id, epoch: c.splitEpoch - 1, color: color})
	return &Comm{world: c.world, group: group, rank: myRank, id: id}
}

// splitID returns the communicator id for a split group, allocating a fresh
// one on first request.
func (w *World) splitID(k splitKey) int64 {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	if id, ok := w.splitIDs[k]; ok {
		return id
	}
	w.nextComm++
	w.splitIDs[k] = w.nextComm
	return w.nextComm
}

// Reserved internal tags. User tags share the space; collectives use tags
// >= tagCollBase so user point-to-point traffic below that never collides.
const (
	tagCollBase = 1 << 19
	tagSplit    = tagCollBase + 0x800
)
