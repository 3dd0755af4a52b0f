package comm

import (
	"fmt"

	"repro/internal/obs"
)

// Op is a reduction operator for reduce-style collectives.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(dst, src []float32) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("comm: unknown op %d", o))
	}
}

// Collective tag bases. Each collective call uses a contiguous tag window
// starting at its base; per-(src,dst) FIFO ordering makes reuse across
// successive calls on the same communicator safe (non-overtaking matching).
const (
	tagBcast     = tagCollBase + 0x100
	tagAllgather = tagCollBase + 0x400
	tagAlltoall  = tagCollBase + 0x600
	tagStable    = tagCollBase + 0x680 // Allreduce: fold, then allgather from +1
	tagStableRS  = tagStable + 0x40    // ReduceScatterStableSlabs, past Allreduce's window
	tagBarrier   = tagCollBase + 0x700
)

// AllreduceAlgo names an allreduce algorithm. There is one: the benchmark
// module still passes AllreduceStableRing through Comm.AllreduceAlgo.
type AllreduceAlgo int

// AllreduceStableRing is the only allreduce algorithm, the one Allreduce runs.
const AllreduceStableRing AllreduceAlgo = 0

// Allreduce reduces buf elementwise across all ranks of the communicator
// with operator op and leaves the identical result in buf on every rank.
//
// Every element is reduced in rank order: element i ends as
// ((x0[i] op x1[i]) op x2[i]) ... op x_{p-1}[i], whatever the buffer's
// length, fusion or chunking, and whether the call is blocking or runs on
// the proxy (IAllreduce). The algorithm is the stable reduce-scatter over
// the balanced p-way chunk partition (the owner of each chunk folds every
// rank's contribution in rank order) followed by the ring allgather; each
// rank sends 2n(p-1)/p words, as in the ring algorithm.
func (c *Comm) Allreduce(buf []float32, op Op) {
	p := c.Size()
	if p == 1 {
		return
	}
	t := obs.Start()
	n := len(buf)
	chunk := func(q int) (lo, hi int) { return ringChunk(n, p, q) }
	lo, hi := chunk(c.rank)
	mine := getBuf(hi - lo)
	c.foldRankOrder(buf, 1, chunk, op, tagStable, mine)
	copy(buf[lo:hi], mine)
	putBuf(mine)
	c.allgatherChunks(buf, tagStable+1)
	c.obsColl(obs.StageAllreduce, t, n)
}

// AllreduceAlgo is Allreduce. algo must be AllreduceStableRing.
func (c *Comm) AllreduceAlgo(buf []float32, op Op, algo AllreduceAlgo) {
	if algo != AllreduceStableRing {
		panic(fmt.Sprintf("comm: unknown allreduce algorithm %d", algo))
	}
	c.Allreduce(buf, op)
}

// ringChunk returns the half-open interval of chunk i under the balanced
// p-way partition of n elements (the first n%p chunks get one extra).
func ringChunk(n, p, i int) (lo, hi int) {
	i = ((i % p) + p) % p
	base, rem := n/p, n%p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return
}

// foldRankOrder is the rank-ordered reduce-scatter every reduction runs on.
// buf holds slabs repetitions of a row; chunk(q) is the half-open interval
// of rank q's chunk within the row. Every rank sends owner q its chunk of
// every slab in one message, then folds its own chunk of all p
// contributions into out (slabs * own chunk words, slab-major) in rank
// order: out = ((x0 op x1) op x2) ... op x_{p-1}. buf is only read.
func (c *Comm) foldRankOrder(buf []float32, slabs int, chunk func(q int) (lo, hi int), op Op, tag int, out []float32) {
	p := c.Size()
	r := c.rank
	rowLen := len(buf) / slabs
	for q := 0; q < p; q++ {
		lo, hi := chunk(q)
		if q == r || hi == lo {
			continue
		}
		n := hi - lo
		msg := getBuf(slabs * n)
		for s := 0; s < slabs; s++ {
			copy(msg[s*n:(s+1)*n], buf[s*rowLen+lo:s*rowLen+hi])
		}
		c.SendNoCopy(q, tag, msg)
	}
	lo, hi := chunk(r)
	n := hi - lo
	for q := 0; q < p && n > 0; q++ {
		if q == r {
			for s := 0; s < slabs; s++ {
				src := buf[s*rowLen+lo : s*rowLen+hi]
				dst := out[s*n : (s+1)*n]
				if q == 0 {
					copy(dst, src)
				} else {
					op.apply(dst, src)
				}
			}
			continue
		}
		contrib := c.Recv(q, tag)
		if q == 0 {
			copy(out, contrib)
		} else {
			op.apply(out, contrib)
		}
		putBuf(contrib)
	}
}

// allgatherChunks circulates the balanced chunks of buf around the ring,
// assuming rank r holds the finished chunk r: after p-1 steps every rank
// holds every chunk.
func (c *Comm) allgatherChunks(buf []float32, tagBase int) {
	p := c.Size()
	r := c.rank
	n := len(buf)
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	for s := 0; s < p-1; s++ {
		lo, hi := ringChunk(n, p, r-s)
		if hi > lo {
			c.Send(next, tagBase+s, buf[lo:hi])
		}
		lo, hi = ringChunk(n, p, r-s-1)
		if hi > lo {
			got := c.Recv(prev, tagBase+s)
			copy(buf[lo:hi], got)
			putBuf(got)
		}
	}
}

// Bcast broadcasts buf from root to all ranks using a binomial tree.
func (c *Comm) Bcast(buf []float32, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	t := obs.Start()
	// Rotate so root is virtual rank 0.
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (vr - mask + root) % p
			got := c.Recv(src, tagBcast)
			copy(buf, got)
			putBuf(got)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := (vr + mask + root) % p
			c.Send(dst, tagBcast, buf)
		}
		mask >>= 1
	}
	c.obsColl(obs.StageBcast, t, len(buf))
}

// Allgather fills buf (of p*per elements) with every rank's contribution:
// rank r's input occupies buf[r*per:(r+1)*per] on entry, and on exit every
// rank holds all contributions. Uses the ring algorithm. The tag parameter
// lets internal callers (Split) use a private window; pass 0 otherwise.
func (c *Comm) Allgather(buf []float32, per int, tag int) {
	p := c.Size()
	if p == 1 {
		return
	}
	if len(buf) != p*per {
		panic(fmt.Sprintf("comm: Allgather buffer %d != %d ranks * %d", len(buf), p, per))
	}
	if tag == 0 {
		tag = tagAllgather
	}
	t := obs.Start()
	// The balanced partition of p*per elements is exactly the p blocks of per.
	c.allgatherChunks(buf, tag+1)
	c.obsColl(obs.StageAllgather, t, len(buf))
}

// ReduceScatterStableSlabs reduces buf across ranks in rank order and hands
// each rank only its own chunk. buf holds `slabs` consecutive repetitions of
// the per-rank chunk row [counts[0] | counts[1] | ... | counts[p-1]], and the
// returned pooled slice holds this rank's chunk of every slab, slab-major
// ([slabs * counts[rank]]). Element i of it is ((x0[i] op x1[i]) op x2[i])
// ... op x_{p-1}[i], bitwise what Allreduce of the same buffer leaves there,
// at about half the allreduce's wire cost. All of a peer's slabs travel in
// ONE message, so the exchange costs p-1 sends per rank regardless of slab
// count — the shape the performance model prices. buf is left untouched;
// hand the result back with Release when consumed.
//
// The channel/filter-parallel convolutions use this with one slab per local
// sample: a [nLoc, D, h, w] partial reduces to this rank's [nLoc, dLoc, h, w]
// block in a single collective.
func (c *Comm) ReduceScatterStableSlabs(buf []float32, slabs int, counts []int, op Op) []float32 {
	p := c.Size()
	if len(counts) != p {
		panic(fmt.Sprintf("comm: ReduceScatterStableSlabs needs %d counts, got %d", p, len(counts)))
	}
	if slabs < 1 {
		panic(fmt.Sprintf("comm: ReduceScatterStableSlabs needs slabs >= 1, got %d", slabs))
	}
	rowLen := 0
	for _, n := range counts {
		rowLen += n
	}
	if rowLen*slabs != len(buf) {
		panic(fmt.Sprintf("comm: ReduceScatterStableSlabs counts sum %d * %d slabs != buffer %d", rowLen, slabs, len(buf)))
	}
	mine := getBuf(slabs * counts[c.rank])
	if p == 1 {
		copy(mine, buf)
		return mine
	}
	t := obs.Start()
	chunk := func(q int) (lo, hi int) {
		for _, n := range counts[:q] {
			lo += n
		}
		return lo, lo + counts[q]
	}
	c.foldRankOrder(buf, slabs, chunk, op, tagStableRS, mine)
	c.obsColl(obs.StageReduceScatter, t, len(buf))
	return mine
}

// AlltoAllV performs a personalized all-to-all exchange: send[r] is the
// payload for rank r (may be empty or nil); the result's r-th entry is the
// payload received from rank r. Self-sends are copied locally. Received
// payloads are pooled buffers owned by the caller (Release when consumed).
func (c *Comm) AlltoAllV(send [][]float32) [][]float32 {
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("comm: AlltoAllV needs %d send buffers, got %d", p, len(send)))
	}
	t := obs.Start()
	words := 0
	for _, b := range send {
		words += len(b)
	}
	recv := make([][]float32, p)
	// Stagger the exchange (rank+s pattern) to spread load; eager sends make
	// any ordering deadlock-free.
	for s := 0; s < p; s++ {
		dst := (c.rank + s) % p
		if dst == c.rank {
			cp := getBuf(len(send[dst]))
			copy(cp, send[dst])
			recv[c.rank] = cp
			continue
		}
		c.Send(dst, tagAlltoall, send[dst])
	}
	for s := 0; s < p; s++ {
		src := (c.rank - s + p) % p
		if src == c.rank {
			continue
		}
		recv[src] = c.Recv(src, tagAlltoall)
	}
	c.obsColl(obs.StageAlltoAll, t, words)
	return recv
}

// Barrier blocks until every rank in the communicator has entered it.
// Implemented as a zero-payload dissemination barrier.
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	t := obs.Start()
	for mask, step := 1, 0; mask < p; mask, step = mask<<1, step+1 {
		dst := (c.rank + mask) % p
		src := (c.rank - mask + p) % p
		c.Send(dst, tagBarrier+step, nil)
		putBuf(c.Recv(src, tagBarrier+step))
	}
	c.obsColl(obs.StageBarrier, t, 0)
}
