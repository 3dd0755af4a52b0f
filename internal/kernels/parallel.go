package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds kernel parallelism. Distributed tests run many ranks in
// one process; capping workers per kernel keeps them from oversubscribing.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers sets the kernel-level parallelism (minimum 1) and returns
// the previous value. Not safe to call concurrently with running kernels.
// Pool workers already spawned for a higher setting stay parked (idle
// workers block on the queue and cost nothing); lowering the value only
// limits how many chunks each kernel call fans out.
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

// parallelChunks splits [0, n) into at most `workers` contiguous chunks and
// runs them on the persistent pool. The submitting goroutine runs the first
// chunk itself and then helps drain the queue while waiting, so nested
// dispatch (a kernel inside a kernel, or many in-process ranks sharing the
// pool) cannot deadlock: every waiter is also an executor.
func parallelChunks(n int, job parallelJob) {
	if n <= 0 {
		return
	}
	workers := maxWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= serialGrain {
		job.RunChunk(0, n)
		return
	}
	ensurePool(workers - 1)
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
