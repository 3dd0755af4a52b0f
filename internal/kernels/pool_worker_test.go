package kernels

import (
	"sync"
	"sync/atomic"
	"testing"
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
