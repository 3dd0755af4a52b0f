package comm

import (
	"sync"

	"repro/internal/obs"
)

// Non-blocking collectives in the Aluminum model (Dryden et al., the
// paper's communication library): each communicator owns a proxy goroutine
// that executes collectives submitted by the rank's compute goroutine, so
// the compute goroutine never blocks on the wire. IAllreduce enqueues an
// operation and returns a Request; Wait completes it. The proxy holds a
// shadow communicator handle whose id carries proxyCommBit, giving proxy
// traffic a tag space disjoint from every blocking operation the compute
// goroutine issues — deferred gradient reductions interleave freely with
// halo exchanges and forward-path collectives.
//
// Ordering contract (as for MPI non-blocking collectives): every rank of
// the communicator must submit the same operations in the same order. The
// proxy executes them in submission order, one at a time, which both
// prevents deadlock and pins the reduction schedule, so the overlapped
// result is bitwise identical to the blocking one.

// proxyCommBit marks a proxy (shadow) communicator id. Split ids are small
// sequential integers, so bit 40 can never collide with a real id; folded
// into the tag via tagOf it isolates proxy traffic.
const proxyCommBit int64 = 1 << 40

// Request is the handle to one in-flight non-blocking collective. A Request
// is single-use: Wait consumes it and recycles the handle, after which the
// caller must drop it.
type Request struct {
	mu     sync.Mutex
	cond   sync.Cond
	done   bool
	killed *killedPanic // the kill that aborted the operation, if one did
	eng    *engine
}

// Wait blocks until the operation completes. On return the operation's
// buffer holds the result on every rank that has also completed its Wait,
// and the request handle is consumed. If a kill aborted the operation (this
// rank died, or the collective lost a peer), Wait panics with the kill
// sentinel that RecoverKilled unwinds, as the blocking call would have.
func (r *Request) Wait() {
	r.mu.Lock()
	for !r.done {
		r.cond.Wait()
	}
	killed := r.killed
	r.mu.Unlock()
	r.eng.putReq(r)
	if killed != nil {
		panic(*killed)
	}
}

// complete marks the request done; killed is the kill that aborted it, or
// nil.
func (r *Request) complete(killed *killedPanic) {
	r.mu.Lock()
	r.done = true
	r.killed = killed
	r.cond.Broadcast()
	r.mu.Unlock()
}

// collOp is one queued proxy operation: an allreduce on buf (a
// reduce-scatter when scatter is set), or — when fn is non-nil — an
// arbitrary communication closure run with the proxy's shadow communicator
// (engine-style request handles for halo exchanges).
type collOp struct {
	buf     []float32
	op      Op
	scatter bool
	fn      func(proxy *Comm)
	req     *Request
}

// engine is the per-communicator proxy: a persistent goroutine draining a
// FIFO of collectives. The queue slice and request handles are recycled, so
// a warm submit/execute/wait cycle allocates nothing.
type engine struct {
	proxy *Comm

	mu   sync.Mutex
	cond sync.Cond
	ops  []collOp
	head int
	cur  *Request // op executing on the proxy goroutine right now
	free []*Request
	stop bool
	gone bool // run goroutine has exited; handle must be replaced
}

// engine returns this communicator's proxy engine, starting it on first
// use (and replacing it if a World.Shutdown stopped the previous one).
// Comm handles are single-goroutine, so no locking is needed here.
func (c *Comm) engine() *engine {
	if c.eng == nil || c.eng.exited() {
		e := &engine{proxy: &Comm{world: c.world, group: c.group, rank: c.rank, id: c.id | proxyCommBit}}
		e.cond.L = &e.mu
		c.world.registerEngine(e)
		go e.run()
		c.eng = e
	}
	return c.eng
}

// IAllreduce starts a non-blocking allreduce of buf with operator op and
// returns its request handle. The caller must not touch buf until the
// request completes. The proxy runs Allreduce, so deferred and inline
// reductions of the same values are bitwise identical.
func (c *Comm) IAllreduce(buf []float32, op Op) *Request {
	return c.engine().submit(collOp{buf: buf, op: op})
}

// IReduceScatterInPlace starts a non-blocking ReduceScatterInPlace of buf
// and returns its request handle; after Wait, buf[OwnedChunk(len(buf))]
// holds this rank's chunk of the reduction. Unlike a Do closure, the proxy
// span it records carries the buffer's bytes, so the flight recorder
// counts the exchange as a collective, as it does for IAllreduce.
func (c *Comm) IReduceScatterInPlace(buf []float32, op Op) *Request {
	return c.engine().submit(collOp{buf: buf, op: op, scatter: true})
}

// Do runs fn on the communicator's proxy goroutine with the proxy's shadow
// communicator handle and returns its request handle. It is the generic
// engine entry point the halo exchanges use for their send side: the
// exchange draws from the pooled proxy path instead of spawning a goroutine
// per layer, and its traffic lives in the proxy tag space. The ordering
// contract of non-blocking collectives applies: every rank of the
// communicator must submit matching proxy operations in the same order
// (fn runs after all previously submitted operations complete).
func (c *Comm) Do(fn func(proxy *Comm)) *Request {
	return c.engine().submit(collOp{fn: fn})
}

func (e *engine) submit(op collOp) *Request {
	e.mu.Lock()
	var r *Request
	if k := len(e.free); k > 0 {
		r = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		r = &Request{eng: e}
		r.cond.L = &r.mu
	}
	op.req = r
	e.ops = append(e.ops, op)
	e.cond.Signal()
	e.mu.Unlock()
	return r
}

// putReq recycles a consumed request handle.
func (e *engine) putReq(r *Request) {
	r.done = false
	r.killed = nil
	e.mu.Lock()
	e.free = append(e.free, r)
	e.mu.Unlock()
}

// run is the proxy goroutine: pop, execute, complete, until shutdown. The
// queue is drained before exit so outstanding requests always complete.
//
// If a kill surfaces while the proxy executes (fault injection: the kill
// panic can surface on whichever of the rank's goroutines sends the fatal
// message, and a collective that loses a peer fails its survivors too),
// the panic is absorbed here: the in-flight and queued requests complete
// as aborted, so their Waits re-raise the kill on the compute goroutine,
// and the engine retires.
func (e *engine) run() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		killed, ok := r.(killedPanic)
		if !ok {
			panic(r)
		}
		e.mu.Lock()
		reqs := make([]*Request, 0, len(e.ops)-e.head+1)
		if e.cur != nil {
			reqs = append(reqs, e.cur)
			e.cur = nil
		}
		for ; e.head < len(e.ops); e.head++ {
			reqs = append(reqs, e.ops[e.head].req)
			e.ops[e.head] = collOp{}
		}
		e.ops = e.ops[:0]
		e.head = 0
		e.gone = true
		e.mu.Unlock()
		for _, req := range reqs {
			req.complete(&killed)
		}
		e.cond.Broadcast() // wake shutdown
	}()
	e.mu.Lock()
	for {
		for e.head == len(e.ops) && !e.stop {
			if e.head > 0 {
				// Drained: rewind so the backing array is reused.
				e.ops = e.ops[:0]
				e.head = 0
			}
			e.cond.Wait()
		}
		if e.head == len(e.ops) {
			e.gone = true
			e.mu.Unlock()
			e.cond.Broadcast() // wake shutdown
			return
		}
		op := e.ops[e.head]
		e.ops[e.head] = collOp{}
		e.head++
		e.cur = op.req
		e.mu.Unlock()

		t := obs.Start()
		switch {
		case op.fn != nil:
			op.fn(e.proxy)
		case op.scatter:
			e.proxy.ReduceScatterInPlace(op.buf, op.op)
		default:
			e.proxy.Allreduce(op.buf, op.op)
		}
		if t != 0 {
			obs.RingFor(e.proxy.group[e.proxy.rank]).Record(
				obs.StageProxyOp, obs.ClassProxy, 0, t, int64(len(op.buf))*4)
		}
		e.mu.Lock()
		e.cur = nil
		e.mu.Unlock()
		op.req.complete(nil)

		e.mu.Lock()
	}
}

// QuiesceEngine retires the communicator's proxy engine, joining its
// goroutine; a no-op when no engine was ever started or it already exited.
// A fault-tolerance supervisor calls this on a killed rank's handles after
// joining the rank's own goroutines and BEFORE reviving the rank: the
// engine goroutine is not joined by the rank's WaitGroup, so without the
// quiesce an in-flight proxy op could deposit a stale message into a peer
// mailbox after the supervisor's DrainAll, corrupting the next incarnation's
// collectives. While the rank is still marked dead, pending ops unwind
// immediately (their sends and receives hit the dead checks), so the join
// is prompt. The next Do/IAllreduce on the handle starts a fresh engine.
func (c *Comm) QuiesceEngine() {
	if c.eng != nil {
		c.eng.shutdown()
	}
}

// exited reports whether the proxy goroutine has terminated.
func (e *engine) exited() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gone
}

// shutdown drains the queue and joins the proxy goroutine.
func (e *engine) shutdown() {
	e.mu.Lock()
	e.stop = true
	e.cond.Broadcast()
	for !e.gone {
		e.cond.Wait()
	}
	e.mu.Unlock()
}
