package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ReduceScatterInPlace (blocking and on the proxy) leaves on each rank
// exactly the range of Allreduce's result it owns, the owned ranges tile
// the buffer in rank order, and AllgatherInPlace after it rebuilds
// Allreduce's full result: bit for bit, for every rank count, length and
// operator.
func TestReduceScatterAllgatherComposeToAllreduce(t *testing.T) {
	halves := []struct {
		name string
		rs   func(c *Comm, buf []float32, op Op) (lo, hi int)
	}{
		{"ReduceScatterInPlace", func(c *Comm, buf []float32, op Op) (int, int) { return c.ReduceScatterInPlace(buf, op) }},
		{"IReduceScatterInPlace", func(c *Comm, buf []float32, op Op) (int, int) {
			c.IReduceScatterInPlace(buf, op).Wait()
			return c.OwnedChunk(len(buf))
		}},
	}
	for p := 1; p <= 9; p++ {
		rng := rand.New(rand.NewSource(int64(p)))
		w := NewWorld(p)
		for _, n := range []int{0, 1, p - 1, p, 4095, 4096, 5000} {
			inputs := make([][]float32, p)
			for r := range inputs {
				inputs[r] = make([]float32, n)
				for i := range inputs[r] {
					inputs[r][i] = rng.Float32()*2 - 1
				}
			}
			for _, op := range []Op{OpSum, OpMax, OpMin} {
				for _, h := range halves {
					name := fmt.Sprintf("p=%d n=%d op=%d %s", p, n, op, h.name)
					los, his := make([]int, p), make([]int, p)
					w.Run(func(c *Comm) {
						r := c.Rank()
						want := append([]float32(nil), inputs[r]...)
						c.Allreduce(want, op)
						buf := append([]float32(nil), inputs[r]...)
						lo, hi := h.rs(c, buf, op)
						los[r], his[r] = lo, hi
						if !bitwiseEqual(buf[lo:hi], want[lo:hi]) {
							t.Errorf("%s rank %d: owned chunk [%d,%d) differs from Allreduce", name, r, lo, hi)
							return
						}
						c.AllgatherInPlace(buf)
						if !bitwiseEqual(buf, want) {
							t.Errorf("%s rank %d: reduce-scatter + allgather differs from Allreduce", name, r)
						}
					})
					next := 0
					for r := 0; r < p; r++ {
						if los[r] != next || his[r] < los[r] {
							t.Fatalf("%s: rank %d owns [%d,%d), want a chunk starting at %d", name, r, los[r], his[r], next)
						}
						next = his[r]
					}
					if next != n {
						t.Fatalf("%s: owned chunks end at %d, want %d", name, next, n)
					}
				}
			}
		}
	}
}

func bitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// warmBufs returns one n-word buffer per rank of a p-rank world.
func warmBufs(p, n int) [][]float32 {
	bufs := make([][]float32, p)
	for i := range bufs {
		bufs[i] = make([]float32, n)
	}
	return bufs
}

func TestWarmReduceScatterInPlaceZeroAllocs(t *testing.T) {
	bufs := warmBufs(4, 8193)
	assertZeroAllocsSPMD(t, "ReduceScatterInPlace", 4, 10, 20, func(c *Comm) {
		c.ReduceScatterInPlace(bufs[c.Rank()], OpSum)
	})
}

func TestWarmIReduceScatterInPlaceZeroAllocs(t *testing.T) {
	bufs := warmBufs(4, 8193)
	assertZeroAllocsSPMD(t, "IReduceScatterInPlace", 4, 10, 20, func(c *Comm) {
		c.IReduceScatterInPlace(bufs[c.Rank()], OpSum).Wait()
	})
}

func TestWarmAllgatherInPlaceZeroAllocs(t *testing.T) {
	bufs := warmBufs(4, 8193)
	assertZeroAllocsSPMD(t, "AllgatherInPlace", 4, 10, 20, func(c *Comm) {
		c.AllgatherInPlace(bufs[c.Rank()])
	})
}
