package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers is the core budget that all running dispatches share. Ranks
// of one process dispatch into one pool, so a per-call fan-out would have
// every rank split each kernel across every core.
var maxWorkers = runtime.GOMAXPROCS(0)

// coresHeld counts the cores running dispatches hold: one per submitter
// plus the pool workers each borrowed. A dispatch borrows only what the
// budget leaves free, so ranks that compute at once split the cores.
var coresHeld atomic.Int32

// SetMaxWorkers sets the core budget (minimum 1) that all running kernel
// dispatches share, and returns the previous value. A lone call splits
// across the whole budget; concurrent calls borrow only the cores nobody
// holds, and a call that finds none runs inline. 1 runs every kernel
// inline. Not safe to call concurrently with running kernels. Pool
// workers already spawned for a higher setting stay parked (idle workers
// block on the queue and cost nothing).
func SetMaxWorkers(n int) int {
	old := maxWorkers
	if n < 1 {
		n = 1
	}
	maxWorkers = n
	return old
}

// serialGrain is the work-item threshold below which parallelChunks runs inline;
// dispatch costs more than it saves on tiny kernels.
const serialGrain = 2

// parallelJob is the allocation-free unit of parallel work: hot kernels keep
// a pooled job struct holding their parameters and implement RunChunk on a
// pointer-shaped wrapper, so dispatching through the worker pool performs no
// per-call heap allocation (a closure would cost one).
type parallelJob interface {
	RunChunk(lo, hi int)
}

// chunkTask is one contiguous chunk of a job enqueued on the pool.
type chunkTask struct {
	job    parallelJob
	lo, hi int
	done   *doneGroup
}

func (t chunkTask) run() {
	t.job.RunChunk(t.lo, t.hi)
	t.done.finish()
}

// doneGroup tracks the outstanding chunks of one dispatch. When the counter
// hits zero the finisher sends a single token on ch, waking the submitter.
// Pooled: the token is always produced and consumed exactly once per use, so
// a recycled group never sees a stale token.
type doneGroup struct {
	remaining atomic.Int32
	ch        chan struct{}
}

func (d *doneGroup) finish() {
	if d.remaining.Add(-1) == 0 {
		d.ch <- struct{}{}
	}
}

var doneGroupPool = sync.Pool{New: func() any {
	return &doneGroup{ch: make(chan struct{}, 1)}
}}

// workCh is the persistent pool's task queue. Buffered so submitters almost
// never block; when it is momentarily full the submitter runs the chunk
// inline instead (never blocking on a send keeps nested dispatch
// deadlock-free).
var (
	workCh     chan chunkTask
	workChOnce sync.Once

	poolMu      sync.Mutex
	poolWorkers atomic.Int32 // spawned workers; fast-path read is lock-free
)

func ensurePool(workers int) {
	workChOnce.Do(func() { workCh = make(chan chunkTask, 1024) })
	if int(poolWorkers.Load()) >= workers {
		return
	}
	poolMu.Lock()
	for int(poolWorkers.Load()) < workers {
		go poolWorker()
		poolWorkers.Add(1)
	}
	poolMu.Unlock()
}

// poolWorker is the body of one persistent worker: it parks on the queue and
// runs chunks forever. Workers are spawned lazily up to the high-water mark
// of requested parallelism and never exit; parked workers cost nothing.
func poolWorker() {
	for t := range workCh {
		t.run()
	}
}

// claimCores takes the submitter's own core plus up to want idle ones from
// the budget, and returns how many idle ones it got. The caller releases
// extra+1 when its dispatch returns.
func claimCores(want int) (extra int) {
	held := coresHeld.Add(1)
	for {
		extra = min(want, maxWorkers-int(held))
		if extra <= 0 {
			return 0
		}
		if coresHeld.CompareAndSwap(held, held+int32(extra)) {
			return extra
		}
		held = coresHeld.Load()
	}
}

// parallelChunks splits [0, n) into contiguous chunks, one for the
// submitter and one for each idle core claimCores hands it, and runs them
// on the persistent pool; a call that finds every core held runs inline.
// The submitting goroutine runs the first chunk itself and then
// helps drain the queue while waiting, so nested dispatch (a kernel inside
// a kernel, or many in-process ranks sharing the pool) cannot deadlock:
// every waiter is also an executor.
func parallelChunks(n int, job parallelJob) {
	if n <= 0 {
		return
	}
	workers := min(maxWorkers, n)
	if workers <= 1 || n <= serialGrain {
		job.RunChunk(0, n)
		return
	}
	extra := claimCores(workers - 1)
	defer coresHeld.Add(-int32(extra + 1))
	if extra == 0 {
		job.RunChunk(0, n)
		return
	}
	workers = extra + 1
	ensurePool(extra)
	chunk := (n + workers - 1) / workers

	d := doneGroupPool.Get().(*doneGroup)
	// Count all off-submitter chunks up front so a worker finishing
	// instantly cannot drive the counter to zero prematurely. Every such
	// chunk calls finish() exactly once — by a pool worker, by a helping
	// waiter, or by the submitter itself when the queue is full — so the
	// token is produced exactly once.
	d.remaining.Store(int32((n+chunk-1)/chunk - 1))
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		t := chunkTask{job: job, lo: lo, hi: hi, done: d}
		select {
		case workCh <- t:
		default:
			t.run()
		}
	}
	job.RunChunk(0, chunk)

	for d.remaining.Load() > 0 {
		select {
		case t := <-workCh:
			t.run()
		case <-d.ch:
			doneGroupPool.Put(d)
			return
		}
	}
	<-d.ch // counter hit zero; consume the (possibly in-flight) token
	doneGroupPool.Put(d)
}
