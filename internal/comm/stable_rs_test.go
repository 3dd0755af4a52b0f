package comm

import (
	"math/rand"
	"sync"
	"testing"
)

// The stable reduce-scatter's contract: each rank's chunk is bitwise
// identical to what Allreduce would leave in that chunk, for any
// chunk partition (balanced, skewed, empty chunks included).
func TestReduceScatterStableMatchesStableAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		for _, counts := range [][]int{nil, {7}, {5, 3}, {0, 8}, {4, 0, 4, 3}} {
			if counts == nil {
				counts = make([]int, p)
				for i := range counts {
					counts[i] = 3 + i
				}
			}
			if len(counts) != p {
				continue
			}
			total := 0
			for _, n := range counts {
				total += n
			}
			// Per-rank contributions, deterministic.
			contrib := make([][]float32, p)
			for r := range contrib {
				rng := rand.New(rand.NewSource(int64(100*p + r)))
				contrib[r] = make([]float32, total)
				for i := range contrib[r] {
					contrib[r][i] = rng.Float32()*2 - 1
				}
			}

			want := make([][]float32, p) // stable-allreduce result per rank
			got := make([][]float32, p)  // reduce-scatter chunk per rank
			var mu sync.Mutex
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				r := c.Rank()
				full := make([]float32, total)
				copy(full, contrib[r])
				mine := c.ReduceScatterStableSlabs(full, 1, counts, OpSum)
				out := make([]float32, counts[r])
				copy(out, mine)
				c.Release(mine)

				ar := make([]float32, total)
				copy(ar, contrib[r])
				c.Allreduce(ar, OpSum)
				mu.Lock()
				got[r] = out
				want[r] = ar
				mu.Unlock()
			})
			off := 0
			for r := 0; r < p; r++ {
				for i := 0; i < counts[r]; i++ {
					if got[r][i] != want[r][off+i] {
						t.Fatalf("p=%d counts=%v rank %d elem %d: reduce-scatter %v != stable allreduce %v (bitwise)",
							p, counts, r, i, got[r][i], want[r][off+i])
					}
				}
				off += counts[r]
			}
		}
	}
}

// The slab variant must be bitwise identical to reducing each slab with an
// independent one-slab call (and therefore to Allreduce), while moving all
// slabs in one message per peer.
func TestReduceScatterStableSlabsMatchesPerSlab(t *testing.T) {
	const p, slabs = 3, 4
	counts := []int{2, 0, 3}
	rowLen := 5
	contrib := make([][]float32, p)
	for r := range contrib {
		rng := rand.New(rand.NewSource(int64(50 + r)))
		contrib[r] = make([]float32, slabs*rowLen)
		for i := range contrib[r] {
			contrib[r][i] = rng.Float32()*2 - 1
		}
	}
	got := make([][]float32, p)
	want := make([][]float32, p)
	var mu sync.Mutex
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		r := c.Rank()
		buf := make([]float32, len(contrib[r]))
		copy(buf, contrib[r])
		mine := c.ReduceScatterStableSlabs(buf, slabs, counts, OpSum)
		out := make([]float32, len(mine))
		copy(out, mine)
		c.Release(mine)

		ref := make([]float32, 0, slabs*counts[r])
		for s := 0; s < slabs; s++ {
			one := c.ReduceScatterStableSlabs(buf[s*rowLen:(s+1)*rowLen], 1, counts, OpSum)
			ref = append(ref, one...)
			c.Release(one)
		}
		mu.Lock()
		got[r] = out
		want[r] = ref
		mu.Unlock()
	})
	for r := 0; r < p; r++ {
		if len(got[r]) != slabs*counts[r] {
			t.Fatalf("rank %d: slab result length %d, want %d", r, len(got[r]), slabs*counts[r])
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d elem %d: slab variant %v != per-slab %v (bitwise)", r, i, got[r][i], want[r][i])
			}
		}
	}
}

func TestReduceScatterStableLeavesInputUntouched(t *testing.T) {
	const p = 3
	counts := []int{2, 3, 4}
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		buf := make([]float32, 9)
		for i := range buf {
			buf[i] = float32(c.Rank()*100 + i)
		}
		orig := make([]float32, len(buf))
		copy(orig, buf)
		mine := c.ReduceScatterStableSlabs(buf, 1, counts, OpSum)
		c.Release(mine)
		for i := range buf {
			if buf[i] != orig[i] {
				t.Errorf("rank %d: input[%d] mutated: %v -> %v", c.Rank(), i, orig[i], buf[i])
			}
		}
	})
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok := c.TryRecv(1, 7); ok {
				t.Error("TryRecv returned a message before any send")
			}
			c.Send(1, 9, []float32{1}) // release rank 1 to send
			got := c.Recv(1, 7)        // blocking recv guarantees arrival
			c.Release(got)
			c.Send(1, 9, []float32{2})
			// A second message is now queued (rank 1 sent both before the
			// second token round-trip completed its recv).
			for {
				data, ok := c.TryRecv(1, 7)
				if ok {
					if data[0] != 42 {
						t.Errorf("TryRecv payload %v, want 42", data[0])
					}
					c.Release(data)
					break
				}
			}
		} else {
			c.Release(c.Recv(0, 9))
			c.Send(0, 7, []float32{41})
			c.Send(0, 7, []float32{42})
			c.Release(c.Recv(0, 9))
		}
	})
}

func TestDupSharesMailbox(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			d := c.Dup()
			if d.Rank() != 0 || d.Size() != 2 {
				t.Errorf("dup rank/size = %d/%d, want 0/2", d.Rank(), d.Size())
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // concurrent receive on the duplicate
				defer wg.Done()
				got := d.Recv(1, 3)
				if got[0] != 5 {
					t.Errorf("dup received %v, want 5", got[0])
				}
				d.Release(got)
			}()
			got := c.Recv(1, 4)
			if got[0] != 6 {
				t.Errorf("original received %v, want 6", got[0])
			}
			c.Release(got)
			wg.Wait()
		} else {
			c.Send(0, 3, []float32{5})
			c.Send(0, 4, []float32{6})
		}
	})
}

// Warm stable reduce-scatters must run entirely on pooled buffers.
func TestWarmReduceScatterStableZeroAllocs(t *testing.T) {
	counts := []int{3, 3, 3, 3}
	bufs := make([][]float32, 4)
	for i := range bufs {
		bufs[i] = make([]float32, 12)
		for j := range bufs[i] {
			bufs[i][j] = float32(i + j)
		}
	}
	assertZeroAllocsSPMD(t, "ReduceScatterStableSlabs", 4, 10, 20, func(c *Comm) {
		c.Release(c.ReduceScatterStableSlabs(bufs[c.Rank()], 1, counts, OpSum))
	})
}
