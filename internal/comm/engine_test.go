package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// runWithDeadline fails the test if the SPMD body does not finish in time —
// the deadlock watchdog for tests that interleave proxy collectives with
// blocking traffic.
func runWithDeadline(t *testing.T, w *World, d time.Duration, fn func(c *Comm)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		w.Run(fn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlock: SPMD body did not complete")
	}
}

func TestIAllreduceMatchesBlocking(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for _, n := range []int{1, 5, 100, 5000} {
			rng := rand.New(rand.NewSource(int64(p*1000 + n)))
			inputs := make([][]float32, p)
			for r := range inputs {
				inputs[r] = make([]float32, n)
				for i := range inputs[r] {
					inputs[r][i] = rng.Float32() - 0.5
				}
			}
			var mu sync.Mutex
			async := make([][]float32, p)
			blocking := make([][]float32, p)
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				a := append([]float32(nil), inputs[c.Rank()]...)
				b := append([]float32(nil), inputs[c.Rank()]...)
				req := c.IAllreduce(a, OpSum)
				c.Allreduce(b, OpSum)
				req.Wait()
				mu.Lock()
				async[c.Rank()] = a
				blocking[c.Rank()] = b
				mu.Unlock()
			})
			for r := 0; r < p; r++ {
				for i := range async[r] {
					if math.Float32bits(async[r][i]) != math.Float32bits(blocking[r][i]) {
						t.Fatalf("p=%d n=%d rank %d elem %d: async %v != blocking %v",
							p, n, r, i, async[r][i], blocking[r][i])
					}
				}
			}
		}
	}
}

// The keystone of the gradient-overlap determinism guarantee: the stable
// reduction of an element must not depend on the length or layout of the
// buffer it rides in. Reduce two vectors separately and fused into one
// concatenated buffer; every element must match bitwise.
func TestAllreduceStableFusionInvariant(t *testing.T) {
	const p, na, nb = 5, 137, 613
	rng := rand.New(rand.NewSource(9))
	as := make([][]float32, p)
	bs := make([][]float32, p)
	for r := 0; r < p; r++ {
		as[r] = make([]float32, na)
		bs[r] = make([]float32, nb)
		for i := range as[r] {
			as[r][i] = rng.Float32()*2 - 1
		}
		for i := range bs[r] {
			bs[r][i] = rng.Float32()*2 - 1
		}
	}
	var mu sync.Mutex
	type result struct{ sep, fused []float32 }
	results := make([]result, p)
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		a := append([]float32(nil), as[c.Rank()]...)
		b := append([]float32(nil), bs[c.Rank()]...)
		fused := make([]float32, na+nb)
		copy(fused, a)
		copy(fused[na:], b)
		c.Allreduce(a, OpSum)
		c.Allreduce(b, OpSum)
		c.Allreduce(fused, OpSum)
		sep := append(append([]float32(nil), a...), b...)
		mu.Lock()
		results[c.Rank()] = result{sep: sep, fused: fused}
		mu.Unlock()
	})
	for r := 0; r < p; r++ {
		for i := range results[r].sep {
			if math.Float32bits(results[r].sep[i]) != math.Float32bits(results[r].fused[i]) {
				t.Fatalf("rank %d elem %d: separate %v != fused %v (stable reduction depends on chunking)",
					r, i, results[r].sep[i], results[r].fused[i])
			}
		}
	}
}

func TestIAllreduceManyOutstanding(t *testing.T) {
	// A backlog of non-blocking collectives must complete in submission
	// order with correct results.
	const p, k, n = 4, 12, 257
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		bufs := make([][]float32, k)
		reqs := make([]*Request, k)
		for j := range bufs {
			bufs[j] = make([]float32, n)
			for i := range bufs[j] {
				bufs[j][i] = float32((c.Rank() + 1) * (j + 1))
			}
			reqs[j] = c.IAllreduce(bufs[j], OpSum)
		}
		sumRanks := float32(p*(p+1)) / 2
		for j := range reqs {
			reqs[j].Wait()
			want := sumRanks * float32(j+1)
			for i, v := range bufs[j] {
				if v != want {
					t.Errorf("rank %d op %d elem %d = %v, want %v", c.Rank(), j, i, v, want)
					return
				}
			}
		}
	})
}

func TestIAllreduceConcurrentSplitComms(t *testing.T) {
	// Non-blocking collectives in flight simultaneously on the world
	// communicator and on two overlapping split communicators, interleaved
	// with blocking traffic. Run under -race in CI.
	w := NewWorld(4)
	runWithDeadline(t, w, 60*time.Second, func(c *Comm) {
		row := c.Split(c.Rank()/2, c.Rank()) // {0,1}, {2,3}
		col := c.Split(c.Rank()%2, c.Rank()) // {0,2}, {1,3}
		for iter := 0; iter < 50; iter++ {
			a := make([]float32, 64+iter)
			b := make([]float32, 33)
			d := make([]float32, 7)
			for i := range a {
				a[i] = float32(c.Rank() + iter)
			}
			for i := range b {
				b[i] = float32(row.Rank() + 1)
			}
			for i := range d {
				d[i] = float32(col.Rank() + 1)
			}
			r1 := c.IAllreduce(a, OpSum)
			r2 := row.IAllreduce(b, OpSum)
			r3 := col.IAllreduce(d, OpSum)
			// Blocking point-to-point traffic while proxies are busy.
			partner := c.Rank() ^ 1
			c.Send(partner, 17, []float32{float32(c.Rank())})
			got := c.Recv(partner, 17)
			if got[0] != float32(partner) {
				t.Errorf("iter %d: exchanged %v, want %v", iter, got[0], partner)
			}
			c.Release(got)
			r3.Wait()
			r1.Wait()
			r2.Wait()
			if a[0] != float32(4*iter+6) { // sum of ranks + 4*iter
				t.Errorf("iter %d: world sum %v, want %v", iter, a[0], 4*iter+6)
			}
			if b[0] != 3 || d[0] != 3 {
				t.Errorf("iter %d: split sums %v/%v, want 3/3", iter, b[0], d[0])
			}
		}
	})
}

func TestIAllreduceInterleavesWithBlockingCollectives(t *testing.T) {
	// Deadlock regression: a proxy allreduce must make progress while the
	// compute goroutines are inside blocking collectives and barriers.
	w := NewWorld(4)
	runWithDeadline(t, w, 60*time.Second, func(c *Comm) {
		for iter := 0; iter < 30; iter++ {
			big := make([]float32, 6000)
			for i := range big {
				big[i] = float32(c.Rank())
			}
			req := c.IAllreduce(big, OpSum)
			small := []float32{1}
			c.Allreduce(small, OpSum) // blocking, same communicator
			c.Barrier()
			req.Wait()
			if small[0] != 4 || big[0] != 6 {
				t.Errorf("iter %d: got %v/%v, want 4/6", iter, small[0], big[0])
				return
			}
		}
	})
}

func TestWorldReuseAfterRun(t *testing.T) {
	// Run shuts the proxies down; a second Run on the same world must
	// transparently restart them.
	w := NewWorld(3)
	for round := 0; round < 2; round++ {
		w.Run(func(c *Comm) {
			buf := []float32{float32(c.Rank() + 1)}
			c.IAllreduce(buf, OpSum).Wait()
			if buf[0] != 6 {
				t.Errorf("round %d: sum %v, want 6", round, buf[0])
			}
		})
	}
}

// assertZeroAllocs measures rank 0 while every rank executes the identical
// warm loop: the steady-state claim covers the whole world (proxies
// included), since AllocsPerRun counts process-wide mallocs.
func assertZeroAllocsSPMD(t *testing.T, name string, p, warm, runs int, body func(c *Comm)) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var got float64
	var mu sync.Mutex
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		step := func() { body(c) }
		for i := 0; i < warm; i++ {
			step()
		}
		if c.Rank() == 0 {
			a := testing.AllocsPerRun(runs, step)
			mu.Lock()
			got = a
			mu.Unlock()
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun executes 1+runs
				step()
			}
		}
	})
	if got != 0 {
		t.Errorf("%s: %v allocs/op after warm-up, want 0", name, got)
	}
}

// Small buffers take the eager path and large ones the in-place path;
// both must be allocation-free warm.
func TestWarmRingAllreduceZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 8192, inPlaceLen(4)} {
		bufs := make([][]float32, 4)
		for i := range bufs {
			bufs[i] = make([]float32, n)
		}
		assertZeroAllocsSPMD(t, fmt.Sprintf("Allreduce/%d", n), 4, 10, 20, func(c *Comm) {
			c.Allreduce(bufs[c.Rank()], OpSum)
		})
	}
}

func TestWarmIAllreduceZeroAllocs(t *testing.T) {
	for _, n := range []int{8192, inPlaceLen(4)} {
		bufs := warmBufs(4, n)
		assertZeroAllocsSPMD(t, fmt.Sprintf("IAllreduce/%d", n), 4, 10, 20, func(c *Comm) {
			c.IAllreduce(bufs[c.Rank()], OpSum).Wait()
		})
	}
}

func TestWarmHaloStyleSendRecvZeroAllocs(t *testing.T) {
	// The point-to-point pattern halo exchanges use: pooled payload out,
	// received payload released.
	bufs := make([][]float32, 2)
	for i := range bufs {
		bufs[i] = make([]float32, 1024)
	}
	assertZeroAllocsSPMD(t, "SendRecv/pooled", 2, 5, 20, func(c *Comm) {
		partner := 1 - c.Rank()
		payload := GetBuf(1024)
		copy(payload, bufs[c.Rank()])
		c.SendNoCopy(partner, 3, payload)
		got := c.Recv(partner, 3)
		c.Release(got)
	})
}

func TestDoRunsOnProxyInOrder(t *testing.T) {
	// Do closures execute on the proxy in submission order, interleaved
	// with non-blocking collectives, and their traffic lives in the proxy
	// tag space (a halo-style exchange inside Do must not collide with
	// compute-goroutine point-to-point traffic on the same tag).
	const p = 4
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		buf := []float32{float32(c.Rank() + 1)}
		r1 := c.IAllreduce(buf, OpSum)
		got := make([]float32, 1)
		r2 := c.Do(func(proxy *Comm) {
			partner := (proxy.Rank() + 1) % p
			prev := (proxy.Rank() - 1 + p) % p
			payload := GetBuf(1)
			payload[0] = float32(proxy.Rank())
			proxy.SendNoCopy(partner, 7, payload)
			in := proxy.Recv(prev, 7)
			got[0] = in[0]
			proxy.Release(in)
		})
		// Same tag on the compute goroutine: disjoint tag space, no cross-talk.
		c.Send((c.Rank()+1)%p, 7, []float32{100 + float32(c.Rank())})
		mine := c.Recv((c.Rank()-1+p)%p, 7)
		if mine[0] != 100+float32((c.Rank()-1+p)%p) {
			t.Errorf("rank %d: compute-tag message %v corrupted by proxy traffic", c.Rank(), mine[0])
		}
		c.Release(mine)
		r1.Wait()
		r2.Wait()
		if want := float32(p * (p + 1) / 2); buf[0] != want {
			t.Errorf("rank %d: allreduce before Do = %v, want %v", c.Rank(), buf[0], want)
		}
		if want := float32((c.Rank() - 1 + p) % p); got[0] != want {
			t.Errorf("rank %d: Do exchange got %v, want %v", c.Rank(), got[0], want)
		}
	})
}

func TestWarmDoZeroAllocs(t *testing.T) {
	// A halo-style exchange submitted through Do must be allocation-free
	// warm, like the rest of the pooled proxy path (the closure itself is
	// pre-bound so no per-step closure allocation occurs).
	const p = 2
	got := make([][]float32, p)
	for i := range got {
		got[i] = make([]float32, 1)
	}
	fns := make([]func(proxy *Comm), p)
	assertZeroAllocsSPMD(t, "Do/halo-style", p, 10, 20, func(c *Comm) {
		if fns[c.Rank()] == nil {
			r := c.Rank()
			fns[r] = func(proxy *Comm) {
				partner := 1 - proxy.Rank()
				payload := GetBuf(256)
				proxy.SendNoCopy(partner, 9, payload)
				in := proxy.Recv(partner, 9)
				got[proxy.Rank()][0] = in[0]
				proxy.Release(in)
			}
		}
		c.Do(fns[c.Rank()]).Wait()
	})
}
