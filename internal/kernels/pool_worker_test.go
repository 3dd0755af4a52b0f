package kernels

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForNested exercises nested dispatch on the persistent pool:
// outer chunks running on pool workers submit inner chunks themselves. The
// helper-wait (waiters drain the queue) makes this deadlock-free; the test
// verifies every index of every inner range is visited exactly once.
func TestParallelForNested(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	const outer, inner = 8, 1000
	var counts [outer][inner]int32
	ParallelFor(outer, func(olo, ohi int) {
		for o := olo; o < ohi; o++ {
			o := o
			ParallelFor(inner, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[o][i], 1)
				}
			})
		}
	})
	for o := range counts {
		for i := range counts[o] {
			if counts[o][i] != 1 {
				t.Fatalf("outer %d index %d visited %d times", o, i, counts[o][i])
			}
		}
	}
}

// TestParallelForConcurrentCallers models the multi-rank-in-one-process
// tests: many goroutines share the worker pool concurrently.
func TestParallelForConcurrentCallers(t *testing.T) {
	old := SetMaxWorkers(3)
	defer SetMaxWorkers(old)
	const ranks, n = 6, 5000
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visited := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Errorf("index %d visited %d times", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelForReentryAfterShrink checks SetMaxWorkers semantics against
// the persistent pool: lowering the cap serializes subsequent calls even
// though workers spawned for the higher setting stay parked.
func TestParallelForReentryAfterShrink(t *testing.T) {
	old := SetMaxWorkers(8)
	defer SetMaxWorkers(old)
	ParallelFor(64, func(lo, hi int) {}) // spawn up to 7 workers
	SetMaxWorkers(1)
	calls := 0
	ParallelFor(64, func(lo, hi int) {
		if lo != 0 || hi != 64 {
			t.Errorf("serial call chunked to [%d,%d)", lo, hi)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("fn called %d times under maxWorkers=1, want 1", calls)
	}
}

// TestParallelChunksJobChunking verifies the chunk decomposition: at most
// maxWorkers chunks, contiguous, covering [0, n).
func TestParallelChunksJobChunking(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	var mu sync.Mutex
	var spans [][2]int
	ParallelFor(103, func(lo, hi int) {
		mu.Lock()
		spans = append(spans, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(spans) > 4 {
		t.Fatalf("%d chunks for maxWorkers=4", len(spans))
	}
	covered := make([]bool, 103)
	for _, s := range spans {
		for i := s[0]; i < s[1]; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, v := range covered {
		if !v {
			t.Fatalf("index %d not covered", i)
		}
	}
}

// peakJob counts its chunks and records how many ran at once, split into
// all chunks and the borrowed ones (lo > 0: queued for another core).
type peakJob struct {
	calls, running, peak, borrowed, peakBorrowed atomic.Int32
}

func (j *peakJob) RunChunk(lo, hi int) {
	j.calls.Add(1)
	raisePeak(&j.peak, j.running.Add(1))
	if lo > 0 {
		raisePeak(&j.peakBorrowed, j.borrowed.Add(1))
		defer j.borrowed.Add(-1)
	}
	time.Sleep(200 * time.Microsecond)
	j.running.Add(-1)
}

func raisePeak(peak *atomic.Int32, v int32) {
	for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
	}
}

// holdAllCores starts a dispatch whose k chunks block until release is
// called, and returns once all of them run: the dispatch then holds the
// whole budget of k cores.
func holdAllCores(t *testing.T, k int) (release func()) {
	t.Helper()
	entered := make(chan struct{}, k) // one send per chunk
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ParallelFor(64, func(lo, hi int) {
			entered <- struct{}{}
			<-gate
		})
	}()
	timeout := time.After(10 * time.Second)
	for i := range k {
		select {
		case <-entered:
		case <-timeout:
			t.Fatalf("holder: %d of %d chunks running after 10s", i, k)
		}
	}
	if h := coresHeld.Load(); h != int32(k) {
		t.Fatalf("holder holds %d cores, want %d", h, k)
	}
	return func() { close(gate); <-done }
}

// TestParallelChunksSharesCores pins the core-sharing dispatch: a lone
// submitter splits across the whole budget, a submitter that finds every
// core held runs inline, concurrent submitters never borrow more than the
// k-1 cores beyond their own, and every core is returned.
func TestParallelChunksSharesCores(t *testing.T) {
	const k, g, n = 4, 3, 100
	old := SetMaxWorkers(k)
	defer SetMaxWorkers(old)

	var lone peakJob
	parallelChunks(n, &lone)
	if c := lone.calls.Load(); c != k {
		t.Fatalf("lone submitter ran %d chunks, want %d", c, k)
	}
	if h := coresHeld.Load(); h != 0 {
		t.Fatalf("%d cores held after a lone dispatch, want 0", h)
	}

	// Every core held: each concurrent submitter borrows none.
	release := holdAllCores(t, k)
	var starved [g]peakJob
	var wg sync.WaitGroup
	for i := range starved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallelChunks(n, &starved[i])
		}()
	}
	wg.Wait()
	release()
	for i := range starved {
		if c := starved[i].calls.Load(); c != 1 {
			t.Errorf("submitter %d ran %d chunks while every core was held, want 1 (inline)", i, c)
		}
	}

	// Free for all: each running submitter is on its own core, and the
	// cores they borrow never exceed the budget's k-1 others. Claims are
	// taken at dispatch start, so a submitter that arrives after another
	// claimed every core runs beside it: the bound is g+k-1 chunks at
	// once, not max(k, g).
	var shared peakJob
	for range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				parallelChunks(n, &shared)
			}
		}()
	}
	wg.Wait()
	if p := shared.peakBorrowed.Load(); p > k-1 {
		t.Errorf("%d borrowed chunks ran at once, want <= %d", p, k-1)
	}
	if p := shared.peak.Load(); p > g+k-1 {
		t.Errorf("%d chunks ran at once for %d submitters, want <= %d", p, g, g+k-1)
	}
	if h := coresHeld.Load(); h != 0 {
		t.Fatalf("%d cores held after every caller returned, want 0", h)
	}
}

// funcJob adapts a closure to parallelJob for ParallelFor.
type funcJob struct{ fn func(lo, hi int) }

func (j *funcJob) RunChunk(lo, hi int) { j.fn(lo, hi) }

var funcJobPool = sync.Pool{New: func() any { return new(funcJob) }}

// ParallelFor divides [0, n) into contiguous chunks and runs fn on each,
// using up to maxWorkers-way parallelism on the persistent worker pool. fn
// must be safe to run concurrently on disjoint ranges. It is the
// closure-based form of parallelChunks the pool tests drive; the kernels
// use pooled job structs, which allocate nothing.
func ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if maxWorkers <= 1 || n <= serialGrain {
		fn(0, n)
		return
	}
	j := funcJobPool.Get().(*funcJob)
	j.fn = fn
	parallelChunks(n, j)
	j.fn = nil
	funcJobPool.Put(j)
}
