package comm

import (
	"math/bits"
	"sync"
)

// Message-buffer pool. Every payload that crosses a mailbox — eager Send
// copies, collective intermediates, halo fragments — is borrowed from this
// size-bucketed free list and returned when its consumer is done, so warm
// communication performs no heap allocations. The design mirrors the
// kernels.Workspace arena (ceiling power-of-two buckets), but stores slice
// headers directly in per-class free lists instead of a sync.Pool: comm
// buffers are handed across goroutines by value, and boxing them for a
// sync.Pool would itself allocate on every round trip (and the race
// detector's sync.Pool instrumentation would break the zero-alloc
// regression tests).
//
// Ownership convention: Send copies into a pooled buffer; the slice a Recv
// (or a payload-returning collective) hands out is that pooled buffer, owned
// by the caller, who should pass it to Comm.Release once the data has been
// consumed. Releasing is optional — an unreleased buffer is ordinary garbage
// — but steady-state zero-alloc operation depends on it.
//
// One kind of payload is not pooled storage: the views the in-place
// collectives post on their handshake lines are the senders' own buffers,
// borrowed read-only until the receiver acknowledges them. They never reach
// user code, and every path that recycles an unconsumed payload — DrainAll,
// a send cut short by a kill — goes through recycle, which drops them.
type bufPool struct {
	classes [33]bufClass
}

type bufClass struct {
	mu   sync.Mutex
	free [][]float32
}

// msgPool is process-wide, like the kernels default workspace: worlds are
// cheap and numerous in tests, and payload reuse across them is harmless.
var msgPool bufPool

// getBuf borrows a buffer of len n (contents undefined) with capacity
// 1<<class, the invariant putBuf relies on.
func getBuf(n int) []float32 {
	class := bufSizeClass(n)
	c := &msgPool.classes[class]
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	return make([]float32, n, 1<<class)
}

// putBuf returns a buffer to the pool. Buffers whose capacity is not a
// whole power-of-two bucket (most foreign allocations) are dropped to keep
// the bucket invariant. The check cannot detect a sub-slice whose capacity
// happens to land on a power of two — releasing anything but a whole
// payload is the caller-contract violation Comm.Release documents, and
// would alias live memory.
func putBuf(b []float32) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := &msgPool.classes[bits.TrailingZeros(uint(c))]
	cls.mu.Lock()
	cls.free = append(cls.free, b)
	cls.mu.Unlock()
}

// bufSizeClass returns the bucket index for n floats: the smallest i with
// 1<<i >= max(n, 1).
func bufSizeClass(n int) int {
	if n < 0 {
		panic("comm: negative buffer request")
	}
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Prefill seeds the message pool with at least count free buffers of len n.
// Fire-and-forget traffic (the serving fleet's occupancy heartbeats) has a
// scheduling-dependent window between a sender's GetBuf and the receiver's
// Release; seeding the class up front makes the warm path allocation-free
// from the first message instead of after the pool has deepened by luck.
func Prefill(n, count int) {
	bufs := make([][]float32, count)
	for i := range bufs {
		bufs[i] = getBuf(n)
	}
	for _, b := range bufs {
		putBuf(b)
	}
}

// recycle returns a payload that leaves a mailbox unconsumed (a drained
// message, or a send cut short by a kill) to the pool, unless it travels
// on a view-handshake line: a view is a peer's live buffer, and pooling it
// would hand that memory to the next getBuf while its owner still uses it.
// putBuf's capacity check cannot tell, so the line decides. tag may be
// bare or folded with a communicator id.
func recycle(tag int, data []float32) {
	switch tag & (1<<20 - 1) {
	case tagView, tagViewFinal, tagViewAck:
		return
	}
	putBuf(data)
}

// GetBuf borrows a pooled payload buffer of len n. It is the allocation-free
// way to build a payload for SendNoCopy: fill the buffer, hand it off, and
// the receiver's Release returns it to the pool.
func GetBuf(n int) []float32 { return getBuf(n) }

// Release returns a payload obtained from Recv, SendRecv, a collective, or
// GetBuf to the message-buffer pool. Only whole payloads may be released —
// never a sub-slice — and the caller must not touch the slice afterwards.
func (c *Comm) Release(buf []float32) { putBuf(buf) }
