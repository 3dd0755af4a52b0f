package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestWorldSizeAndRanks(t *testing.T) {
	w := NewWorld(4)
	if w.Size() != 4 {
		t.Fatalf("Size = %d, want 4", w.Size())
	}
	c := w.Comm(2)
	if c.Rank() != 2 || c.Size() != 4 {
		t.Fatalf("rank/size = %d/%d, want 2/4", c.Rank(), c.Size())
	}
	if c.WorldRank(3) != 3 {
		t.Fatal("world communicator must map ranks identically")
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float32{1, 2, 3})
		} else {
			got := c.Recv(0, 5)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv got %v", got)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, 1, buf)
			buf[0] = -1 // must not affect the delivered message
		} else {
			if got := c.Recv(0, 1); got[0] != 42 {
				t.Errorf("Recv got %v, want 42 (send must copy)", got[0])
			}
		}
	})
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 7, []float32{7})
		case 1:
			c.Send(2, 9, []float32{9})
		case 2:
			// Receive in the opposite order from arrival possibilities.
			if got := c.Recv(1, 9); got[0] != 9 {
				t.Errorf("tag 9 got %v", got[0])
			}
			if got := c.Recv(0, 7); got[0] != 7 {
				t.Errorf("tag 7 got %v", got[0])
			}
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	// Two same-tag messages between the same pair must arrive in send order.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float32{1})
			c.Send(1, 3, []float32{2})
		} else {
			if got := c.Recv(0, 3); got[0] != 1 {
				t.Errorf("first message = %v, want 1", got[0])
			}
			if got := c.Recv(0, 3); got[0] != 2 {
				t.Errorf("second message = %v, want 2", got[0])
			}
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		me := float32(c.Rank())
		c.Send(1-c.Rank(), 2, []float32{me})
		got := c.Recv(1-c.Rank(), 2)
		if got[0] != 1-me {
			t.Errorf("rank %d exchanged got %v", c.Rank(), got[0])
		}
	})
}

// rankOrderFold is the serial reference every reduction must equal bitwise:
// ((x0 op x1) op x2) ... op x_{p-1}, element by element, written
// independently of Op.apply.
func rankOrderFold(inputs [][]float32, op Op) []float32 {
	out := append([]float32(nil), inputs[0]...)
	for _, x := range inputs[1:] {
		for i, v := range x {
			switch op {
			case OpSum:
				out[i] += v
			case OpMax:
				out[i] = max(out[i], v)
			case OpMin:
				out[i] = min(out[i], v)
			}
		}
	}
	return out
}

// checkAllreduceMatchesRankOrderFold: whatever the length or rank count, the
// blocking, non-blocking and pinned-alias allreduces leave on every rank the
// serial left fold in rank order, bit for bit, for OpSum, OpMax and OpMin on
// the inputs gen produces.
func checkAllreduceMatchesRankOrderFold(t *testing.T, gen func(rng *rand.Rand, rank, i int) float32) {
	t.Helper()
	calls := []struct {
		name string
		run  func(c *Comm, buf []float32, op Op)
	}{
		{"Allreduce", func(c *Comm, buf []float32, op Op) { c.Allreduce(buf, op) }},
		{"IAllreduce", func(c *Comm, buf []float32, op Op) { c.IAllreduce(buf, op).Wait() }},
		{"AllreduceAlgo", func(c *Comm, buf []float32, op Op) { c.AllreduceAlgo(buf, op, AllreduceStableRing) }},
	}
	for p := 1; p <= 9; p++ {
		rng := rand.New(rand.NewSource(int64(p)))
		w := NewWorld(p)
		for _, n := range []int{0, 1, 3, p - 1, p, 5, 64, 1000, 4095, 4096, 5000} {
			inputs := make([][]float32, p)
			for r := range inputs {
				inputs[r] = make([]float32, n)
				for i := range inputs[r] {
					inputs[r][i] = gen(rng, r, i)
				}
			}
			for _, op := range []Op{OpSum, OpMax, OpMin} {
				want := rankOrderFold(inputs, op)
				w.Run(func(c *Comm) {
					for _, call := range calls {
						buf := append([]float32(nil), inputs[c.Rank()]...)
						call.run(c, buf, op)
						for i := range buf {
							if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
								t.Errorf("p=%d n=%d op=%d %s rank %d elem %d = %v, want rank-order fold %v",
									p, n, op, call.name, c.Rank(), i, buf[i], want[i])
								return
							}
						}
					}
				})
				if t.Failed() {
					return
				}
			}
		}
	}
}

// TestAllreduceMatchesRankOrderFold runs the rank-order fold check on random
// values in [-1, 1).
func TestAllreduceMatchesRankOrderFold(t *testing.T) {
	checkAllreduceMatchesRankOrderFold(t, func(rng *rand.Rand, _, _ int) float32 { return rng.Float32()*2 - 1 })
}

// TestAllreduceStableCorrectSum runs the rank-order fold check on the
// rank-scaled ramp (rank+1)*(i+1).
func TestAllreduceStableCorrectSum(t *testing.T) {
	checkAllreduceMatchesRankOrderFold(t, func(_ *rand.Rand, rank, i int) float32 { return float32(rank+1) * float32(i+1) })
}

// TestAllreduceMaxMin runs the rank-order fold check on alternating
// +rank/-rank, whose extrema are the last and first ranks.
func TestAllreduceMaxMin(t *testing.T) {
	checkAllreduceMatchesRankOrderFold(t, func(_ *rand.Rand, rank, i int) float32 {
		if i%2 == 1 {
			return -float32(rank)
		}
		return float32(rank)
	})
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root += 2 {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				buf := make([]float32, 10)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float32(i) + 0.5
					}
				}
				c.Bcast(buf, root)
				for i := range buf {
					if buf[i] != float32(i)+0.5 {
						t.Errorf("p=%d root=%d rank %d: bcast elem %d = %v", p, root, c.Rank(), i, buf[i])
						return
					}
				}
			})
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			per := 3
			buf := make([]float32, p*per)
			for i := 0; i < per; i++ {
				buf[c.Rank()*per+i] = float32(c.Rank()*100 + i)
			}
			c.Allgather(buf, per, 0)
			for r := 0; r < p; r++ {
				for i := 0; i < per; i++ {
					if buf[r*per+i] != float32(r*100+i) {
						t.Errorf("p=%d rank %d: allgather[%d][%d] = %v", p, c.Rank(), r, i, buf[r*per+i])
						return
					}
				}
			}
		})
	}
}

func TestReduceScatter(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			per := 4
			counts := make([]int, p)
			for q := range counts {
				counts[q] = per
			}
			buf := make([]float32, p*per)
			for i := range buf {
				buf[i] = float32(c.Rank() + 1)
			}
			mine := c.ReduceScatterStableSlabs(buf, 1, counts, OpSum)
			want := float32(p*(p+1)) / 2
			for i, v := range mine {
				if v != want {
					t.Errorf("p=%d rank %d: reduce-scatter elem %d = %v, want %v", p, c.Rank(), i, v, want)
					return
				}
			}
			c.Release(mine)
		})
	}
}

func TestAlltoAllV(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			send := make([][]float32, p)
			for r := range send {
				// Send r copies of my rank to rank r.
				send[r] = make([]float32, r)
				for i := range send[r] {
					send[r][i] = float32(c.Rank())
				}
			}
			recv := c.AlltoAllV(send)
			for r := 0; r < p; r++ {
				if len(recv[r]) != c.Rank() {
					t.Errorf("p=%d rank %d: recv from %d has %d elems, want %d", p, c.Rank(), r, len(recv[r]), c.Rank())
					return
				}
				for _, v := range recv[r] {
					if v != float32(r) {
						t.Errorf("p=%d rank %d: recv from %d = %v", p, c.Rank(), r, v)
						return
					}
				}
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	// All ranks must have entered the barrier before any exits: check with a
	// shared counter read after the barrier.
	p := 8
	w := NewWorld(p)
	var entered sync.WaitGroup
	entered.Add(p)
	var count int32
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		mu.Lock()
		count++
		mu.Unlock()
		entered.Done()
		c.Barrier()
		mu.Lock()
		defer mu.Unlock()
		if count != int32(p) {
			t.Errorf("rank %d exited barrier before all entered (count=%d)", c.Rank(), count)
		}
	})
}

func TestSplitByColor(t *testing.T) {
	// 6 ranks split into 2 colors of 3; communicator ranks follow key order.
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		color := c.Rank() % 2
		key := -c.Rank() // reverse order within each color
		sub := c.Split(color, key)
		if sub.Size() != 3 {
			t.Errorf("split size = %d, want 3", sub.Size())
			return
		}
		// Reverse key order: highest old rank gets sub-rank 0.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2, 5: 0, 3: 1, 1: 2}[c.Rank()]
		if sub.Rank() != wantRank {
			t.Errorf("old rank %d got sub-rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The sub-communicator must work for collectives.
		buf := []float32{1}
		sub.Allreduce(buf, OpSum)
		if buf[0] != 3 {
			t.Errorf("allreduce on split = %v, want 3", buf[0])
		}
	})
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("negative color must yield nil communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("split size = %d, want 3", sub.Size())
		}
	})
}

func TestSplitIsolatesTagSpaces(t *testing.T) {
	// Messages on a sub-communicator must not be matched by receives on the
	// parent or sibling communicators, even with identical (src, tag).
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		// Sub-communicators: {0,2} and {1,3}. Within each, rank 0 sends to 1.
		if sub.Rank() == 0 {
			sub.Send(1, 5, []float32{float32(c.Rank())})
		} else {
			got := sub.Recv(0, 5)
			want := float32(c.Rank() % 2) // world rank 0 or 1
			if got[0] != want {
				t.Errorf("world rank %d received %v, want %v", c.Rank(), got[0], want)
			}
		}
	})
}

func TestNestedSplit(t *testing.T) {
	// Split 8 ranks into 2 groups of 4, then each into 2 groups of 2, and
	// run collectives at every level.
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		g1 := c.Split(c.Rank()/4, c.Rank())
		g2 := g1.Split(g1.Rank()/2, g1.Rank())
		if g2.Size() != 2 {
			t.Errorf("nested split size = %d, want 2", g2.Size())
			return
		}
		buf := []float32{1}
		g2.Allreduce(buf, OpSum)
		if buf[0] != 2 {
			t.Errorf("nested allreduce = %v, want 2", buf[0])
		}
		buf = []float32{1}
		g1.Allreduce(buf, OpSum)
		if buf[0] != 4 {
			t.Errorf("mid-level allreduce = %v, want 4", buf[0])
		}
		buf = []float32{1}
		c.Allreduce(buf, OpSum)
		if buf[0] != 8 {
			t.Errorf("world allreduce = %v, want 8", buf[0])
		}
	})
}

func TestBackToBackCollectives(t *testing.T) {
	// Successive collectives on the same communicator must not cross-match
	// even when fast ranks race ahead (non-overtaking check under load).
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for iter := 0; iter < 50; iter++ {
			buf := []float32{float32(iter)}
			c.Allreduce(buf, OpSum)
			if buf[0] != float32(4*iter) {
				t.Errorf("iter %d: allreduce = %v, want %v", iter, buf[0], 4*iter)
				return
			}
		}
	})
}

// Property: allreduce(sum) equals the true sum for random sizes and values.
func TestQuickAllreduceSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		n := 1 + rng.Intn(200)
		inputs := make([][]float32, p)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32()*2 - 1
				want[i] += float64(inputs[r][i])
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			buf := append([]float32(nil), inputs[c.Rank()]...)
			c.Allreduce(buf, OpSum)
			for i := range buf {
				if math.Abs(float64(buf[i])-want[i]) > 1e-4 {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: AlltoAllV is its own inverse in volume: the matrix of received
// lengths is the transpose of sent lengths.
func TestQuickAlltoAllTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		lens := make([][]int, p)
		for r := range lens {
			lens[r] = make([]int, p)
			for d := range lens[r] {
				lens[r][d] = rng.Intn(10)
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			send := make([][]float32, p)
			for d := range send {
				send[d] = make([]float32, lens[c.Rank()][d])
			}
			recv := c.AlltoAllV(send)
			for src := range recv {
				if len(recv[src]) != lens[src][c.Rank()] {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReduceScatterStableSlabs' chunk is bitwise the matching slice
// of a full Allreduce, for random rank counts, slab counts and (possibly
// empty) chunk lengths.
func TestQuickReduceScatterMatchesAllreduce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(6)
		slabs := 1 + rng.Intn(3)
		counts := make([]int, p)
		offs := make([]int, p+1)
		for q := range counts {
			counts[q] = rng.Intn(20)
			offs[q+1] = offs[q] + counts[q]
		}
		rowLen := offs[p]
		inputs := make([][]float32, p)
		for r := range inputs {
			inputs[r] = make([]float32, slabs*rowLen)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32() - 0.5
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			r := c.Rank()
			rs := c.ReduceScatterStableSlabs(inputs[r], slabs, counts, OpSum)
			ar := append([]float32(nil), inputs[r]...)
			c.Allreduce(ar, OpSum)
			for s := 0; s < slabs; s++ {
				for i := 0; i < counts[r]; i++ {
					if math.Float32bits(rs[s*counts[r]+i]) != math.Float32bits(ar[s*rowLen+offs[r]+i]) {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
				}
			}
			c.Release(rs)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBcastSingleRankAndSelfConsistency(t *testing.T) {
	// Degenerate single-rank world: all collectives are no-ops.
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		buf := []float32{42}
		c.Bcast(buf, 0)
		c.Allreduce(buf, OpSum)
		c.Barrier()
		if buf[0] != 42 {
			t.Errorf("degenerate collectives altered data: %v", buf[0])
		}
	})
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// WorldRank returns the world rank of communicator rank r.
func (c *Comm) WorldRank(r int) int { return c.group[r] }
