package comm

import (
	"fmt"
	"testing"
	"time"
)

// TestViewKillAbortsSurvivors: a rank killed at any of its sends in a
// large (in-place) Allreduce or IReduceScatterInPlace never hangs the
// rest. Within a bounded time every survivor either returns the right
// result, which it may only do once every peer has acknowledged its view,
// or panics with the kill sentinel; before the dead rank sends its first
// ack, every survivor panics.
func TestViewKillAbortsSurvivors(t *testing.T) {
	calls := []struct {
		name  string
		sends func(p int) int // sends per rank: views, finals, acks
		run   func(c *Comm, buf []float32) (lo, hi int)
	}{
		{"Allreduce", func(p int) int { return 3 * (p - 1) }, func(c *Comm, buf []float32) (int, int) {
			c.Allreduce(buf, OpSum)
			return 0, len(buf)
		}},
		{"IReduceScatterInPlace", func(p int) int { return 2 * (p - 1) }, func(c *Comm, buf []float32) (int, int) {
			c.IReduceScatterInPlace(buf, OpSum).Wait()
			return c.OwnedChunk(len(buf))
		}},
	}
	for _, p := range []int{2, 3, 4} {
		n := p * (viewMinChunk + 1)
		for _, call := range calls {
			sends := call.sends(p)
			for kill := 1; kill <= sends; kill++ {
				name := fmt.Sprintf("%s p=%d kill at send %d of %d", call.name, p, kill, sends)
				dead := p - 1 - kill%p // vary which rank dies
				w := NewWorld(p)
				w.SetFaultPlan(&FaultPlan{Kill: map[int]int{dead: kill}})
				returned := make([]bool, p)
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.Run(func(c *Comm) {
						defer RecoverKilled()
						buf := make([]float32, n)
						for i := range buf {
							buf[i] = float32(c.Rank() + 1)
						}
						lo, hi := call.run(c, buf)
						returned[c.Rank()] = true
						want := float32(p * (p + 1) / 2)
						for i := lo; i < hi; i++ {
							if buf[i] != want {
								t.Errorf("%s: rank %d returned elem %d = %v, want %v", name, c.Rank(), i, buf[i], want)
								return
							}
						}
					})
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: ranks still blocked after 10s", name)
				}
				if returned[dead] {
					t.Errorf("%s: the killed rank %d returned", name, dead)
				}
				for r, ok := range returned {
					if ok && kill <= sends-(p-1) {
						t.Errorf("%s: survivor %d returned although the dead rank sent no ack", name, r)
					}
				}
			}
		}
	}
}

// TestDrainAllNeverPoolsViews: rank 1 dies at its first send, the view it
// posts in a large Allreduce, while rank 0's view already waits in rank
// 1's mailbox. DrainAll must drop that view without pooling it, and the
// kill must not pool rank 1's unsent one: either would let the next getBuf
// alias a live buffer. The buffers are a whole power-of-two size, which
// putBuf's capacity check alone would accept.
func TestDrainAllNeverPoolsViews(t *testing.T) {
	n := 4 * viewMinChunk
	bufs := [][]float32{make([]float32, n), make([]float32, n)}
	w := NewWorld(2)
	w.SetFaultPlan(&FaultPlan{Kill: map[int]int{1: 1}})
	w.Run(func(c *Comm) {
		defer RecoverKilled()
		c.Allreduce(bufs[c.Rank()], OpSum)
		t.Errorf("rank %d returned from an Allreduce that lost rank 1", c.Rank())
	})
	if got := w.Comm(0).DrainAll(); got != 0 {
		t.Errorf("rank 0 drained %d messages, want 0", got)
	}
	if got := w.Comm(1).DrainAll(); got != 1 {
		t.Errorf("rank 1 drained %d messages, want rank 0's view", got)
	}
	cls := &msgPool.classes[bufSizeClass(n)]
	cls.mu.Lock()
	defer cls.mu.Unlock()
	for _, b := range cls.free {
		for r, v := range bufs {
			if &b[:1][0] == &v[0] {
				t.Errorf("rank %d's buffer entered the message pool", r)
			}
		}
	}
}

// inPlaceLen is a buffer length whose per-rank chunk at p ranks is past the
// in-place cutover (and not a multiple of the fold block).
func inPlaceLen(p int) int { return p * (viewMinChunk + 5) }

// Above the cutover the collectives run on posted views: every warm call
// stays allocation-free.
func TestWarmInPlaceCollectivesZeroAllocs(t *testing.T) {
	for _, p := range []int{2, 4} {
		n := inPlaceLen(p)
		bufs := warmBufs(p, n)
		counts := make([]int, p)
		for q := range counts {
			counts[q] = n / p
		}
		for _, tc := range []struct {
			name string
			body func(c *Comm)
		}{
			{"ReduceScatterInPlace", func(c *Comm) { c.ReduceScatterInPlace(bufs[c.Rank()], OpSum) }},
			{"IReduceScatterInPlace", func(c *Comm) { c.IReduceScatterInPlace(bufs[c.Rank()], OpSum).Wait() }},
			{"AllgatherInPlace", func(c *Comm) { c.AllgatherInPlace(bufs[c.Rank()]) }},
			{"Allgather", func(c *Comm) { c.Allgather(bufs[c.Rank()], n/p, 0) }},
			{"ReduceScatterStableSlabs", func(c *Comm) {
				c.Release(c.ReduceScatterStableSlabs(bufs[c.Rank()], 1, counts, OpSum))
			}},
		} {
			assertZeroAllocsSPMD(t, fmt.Sprintf("%s/p=%d/%d", tc.name, p, n), p, 10, 20, tc.body)
		}
	}
}
