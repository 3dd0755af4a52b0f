package comm

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkMailboxMatch measures matching cost with a growing backlog of
// unrelated messages queued in the same mailbox. With per-(source, tag)
// sub-queues the hot line is O(1) regardless of depth; the former single
// linear queue scanned past every unrelated message on each receive.
func BenchmarkMailboxMatch(b *testing.B) {
	for _, depth := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			mb := newMailbox()
			for i := 0; i < depth; i++ {
				mb.put(0, i, nil) // unrelated lines: same source, distinct tags
			}
			hot := 1 << 18
			payload := make([]float32, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mb.put(0, hot, payload)
				mb.tryGet(0, hot)
			}
		})
	}
}

// benchWarmAllreduce times repeated allreduces inside one live world (warm
// pools, warm proxies) — the steady-state training-step pattern, unlike the
// world-per-iteration ablation benchmarks at the repo root.
func benchWarmAllreduce(b *testing.B, p, words int, fn func(c *Comm, buf []float32)) {
	b.Helper()
	b.ReportAllocs()
	w := NewWorld(p)
	b.SetBytes(int64(4 * words))
	w.Run(func(c *Comm) {
		buf := make([]float32, words)
		for i := 0; i < 3; i++ {
			fn(c, buf) // warm pools and proxy
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			fn(c, buf)
		}
	})
}

func BenchmarkAllreduceWarm(b *testing.B) {
	benchWarmAllreduce(b, 4, 1<<16, func(c *Comm, buf []float32) {
		c.Allreduce(buf, OpSum)
	})
}

func BenchmarkIAllreduceWarm(b *testing.B) {
	benchWarmAllreduce(b, 4, 1<<16, func(c *Comm, buf []float32) {
		c.IAllreduce(buf, OpSum).Wait()
	})
}

func BenchmarkReduceScatterWarm(b *testing.B) {
	counts := []int{1 << 14, 1 << 14, 1 << 14, 1 << 14}
	benchWarmAllreduce(b, 4, 1<<16, func(c *Comm, buf []float32) {
		c.Release(c.ReduceScatterStableSlabs(buf, 1, counts, OpSum))
	})
}

// BenchmarkAllreducePaths times the two Allreduce paths at p = 2 across
// per-rank chunk sizes, bypassing the cutover: the crossover it shows is
// where viewMinChunk belongs. In the skewed runs the ranks take turns
// arriving 20 us late, so the in-place path's rendezvous cannot hide
// behind lockstep arrival.
func BenchmarkAllreducePaths(b *testing.B) {
	paths := []struct {
		name string
		run  func(c *Comm, buf []float32)
	}{
		{"eager", func(c *Comm, buf []float32) {
			c.reduceScatterEager(buf, OpSum)
			c.allgatherRing(buf, tagStable+1)
		}},
		{"views", func(c *Comm, buf []float32) { c.allreduceViews(buf, OpSum) }},
	}
	for _, skew := range []time.Duration{0, 20 * time.Microsecond} {
		for _, chunk := range []int{16, 64, 256, 1 << 10, 1 << 11, 1 << 12, 1 << 14, 1 << 16, 1 << 20} {
			for _, path := range paths {
				b.Run(fmt.Sprintf("skew-%v/chunk-%d/%s", skew, chunk, path.name), func(b *testing.B) {
					var calls [2]int
					benchWarmAllreduce(b, 2, 2*chunk, func(c *Comm, buf []float32) {
						if calls[c.Rank()]++; skew > 0 && (calls[c.Rank()]+c.Rank())%2 == 0 {
							for t := time.Now(); time.Since(t) < skew; {
							}
						}
						path.run(c, buf)
					})
				})
			}
		}
	}
}
