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

// apply sets dst = a op b elementwise, a being the running value of a
// fold: OpMax (OpMin) takes b only when it is strictly greater (less).
// dst may alias a or b; apply(acc, acc, x) folds x into acc. The sum runs
// four independent lanes per iteration, 1.4x the plain loop's rate on a
// cache-resident block.
func (o Op) apply(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch o {
	case OpSum:
		i := 0
		for ; i+4 <= len(dst); i += 4 {
			d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
			d[0] = x[0] + y[0]
			d[1] = x[1] + y[1]
			d[2] = x[2] + y[2]
			d[3] = x[3] + y[3]
		}
		for ; i < len(dst); i++ {
			dst[i] = a[i] + b[i]
		}
	case OpMax:
		for i, v := range b {
			x := a[i]
			if v > x {
				x = v
			}
			dst[i] = x
		}
	case OpMin:
		for i, v := range b {
			x := a[i]
			if v < x {
				x = v
			}
			dst[i] = x
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

	// The view handshake of the in-place path (see viewMinChunk); its
	// payloads are peers' live buffers or empty signals, never pooled.
	tagView      = tagCollBase + 0x200 // a read-only view of the sender's whole buffer
	tagViewFinal = tagView + 1         // Allreduce: the sender's chunk is folded
	tagViewAck   = tagView + 2         // the sender has stopped reading the receiver's view
)

// viewMinChunk is the per-rank chunk, in words, from which the stable
// collectives read their peers' buffers in place instead of copying them
// through pooled messages. Each rank posts one read-only view of its whole
// buffer to every peer; owners fold straight from the views and gatherers
// copy finished chunks straight out of them, and a rank returns only once
// every peer has acknowledged its view, so the caller may reuse the buffer
// at once. That saves the eager path's two copies per word (into a pooled
// message and out again) at the price of a rendezvous: one more message
// and wakeup per peer. The value is the p = 2 OpSum crossover of
// BenchmarkAllreducePaths on a 2-vCPU AVX-512 Xeon: up to 256 words per
// chunk the eager path leads by 0.3-1.5 us, at 1 Ki the two tie, and from
// 2 Ki on the in-place path leads whether the ranks arrive in lockstep
// (by 20 % at 2 Ki, 2.3x at 1 Mi) or take turns arriving 20 us late.
const viewMinChunk = 2 << 10

// foldBlock is the in-place fold's cache block in words: every rank's
// contribution to one block is folded before the next block starts, so
// the running result stays in L1 while the p views stream past it.
const foldBlock = 2048

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
// the proxy (IAllreduce). The algorithm is ReduceScatterInPlace followed by
// AllgatherInPlace: the owner of each chunk of the balanced p-way partition
// folds every rank's contribution in rank order, then every rank collects
// the finished chunks. Each rank's buffer is read n(p-1)/p words for the
// fold and as many for the gather. On the eager path (small chunks) those
// words travel as pooled copies, the gather around a ring; on the in-place
// path the readers take them from the owner's buffer directly, over one set
// of views for both halves.
func (c *Comm) Allreduce(buf []float32, op Op) {
	if c.Size() == 1 {
		return
	}
	t := obs.Start()
	if c.inPlace(len(buf)) {
		c.allreduceViews(buf, op)
	} else {
		c.reduceScatterEager(buf, op)
		c.allgatherRing(buf, tagStable+1)
	}
	c.obsColl(obs.StageAllreduce, t, len(buf))
}

// allreduceViews is Allreduce on the in-place path: one set of views
// serves both halves, and each owner signals tagViewFinal between them.
func (c *Comm) allreduceViews(buf []float32, op Op) {
	views := c.postViews(buf)
	lo, hi := c.OwnedChunk(len(buf))
	foldViews(views, 1, lo, hi, op, buf[lo:hi])
	c.signalPeers(tagViewFinal)
	c.gatherViews(views, buf, true)
	c.releaseViews(views)
}

// ReduceScatterInPlace is the first half of Allreduce: it leaves this
// rank's chunk of the rank-ordered reduction in buf[lo:hi], where [lo, hi)
// is OwnedChunk(len(buf)), bitwise what Allreduce leaves there. The rest of
// buf keeps this rank's own contribution. The owners read n(p-1)/p words of
// each rank's buffer, copied or in place as for Allreduce.
func (c *Comm) ReduceScatterInPlace(buf []float32, op Op) (lo, hi int) {
	if c.Size() > 1 {
		t := obs.Start()
		c.reduceScatterInPlace(buf, op)
		c.obsColl(obs.StageReduceScatter, t, len(buf))
	}
	return c.OwnedChunk(len(buf))
}

// AllgatherInPlace is the second half of Allreduce: every rank holds its
// finished chunk buf[OwnedChunk(len(buf))], and on return every rank holds
// every rank's chunk. Each rank's chunk is read by all p-1 peers: around a
// ring in pooled copies for small chunks, straight out of its buffer for
// large ones.
func (c *Comm) AllgatherInPlace(buf []float32) {
	if c.Size() == 1 {
		return
	}
	t := obs.Start()
	c.allgatherChunks(buf, tagStable+1)
	c.obsColl(obs.StageAllgather, t, len(buf))
}

// OwnedChunk returns the half-open range of an n-element buffer this rank
// owns under the balanced partition that ReduceScatterInPlace and
// AllgatherInPlace use: rank r owns chunk r.
func (c *Comm) OwnedChunk(n int) (lo, hi int) { return ringChunk(n, c.Size(), c.rank) }

// reduceScatterInPlace folds this rank's balanced chunk of buf in rank
// order and writes it back into buf; it records no span.
func (c *Comm) reduceScatterInPlace(buf []float32, op Op) {
	if !c.inPlace(len(buf)) {
		c.reduceScatterEager(buf, op)
		return
	}
	views := c.postViews(buf)
	lo, hi := c.OwnedChunk(len(buf))
	foldViews(views, 1, lo, hi, op, buf[lo:hi])
	c.releaseViews(views)
}

// reduceScatterEager is reduceScatterInPlace on the eager path: the
// contributions arrive as pooled copies.
func (c *Comm) reduceScatterEager(buf []float32, op Op) {
	p := c.Size()
	n := len(buf)
	chunk := func(q int) (lo, hi int) { return ringChunk(n, p, q) }
	lo, hi := chunk(c.rank)
	mine := getBuf(hi - lo)
	c.foldRankOrder(buf, 1, chunk, op, tagStable, mine)
	copy(buf[lo:hi], mine)
	putBuf(mine)
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
					op.apply(dst, dst, src)
				}
			}
			continue
		}
		contrib := c.Recv(q, tag)
		if q == 0 {
			copy(out, contrib)
		} else {
			op.apply(out, out, contrib)
		}
		putBuf(contrib)
	}
}

// allgatherChunks completes the balanced chunks of buf on every rank,
// assuming rank r holds the finished chunk r. Above the cutover each rank
// copies every peer's chunk straight out of that peer's view; below it
// the chunks circulate around the ring on tags from tagBase.
func (c *Comm) allgatherChunks(buf []float32, tagBase int) {
	if !c.inPlace(len(buf)) {
		c.allgatherRing(buf, tagBase)
		return
	}
	views := c.postViews(buf)
	c.gatherViews(views, buf, false)
	c.releaseViews(views)
}

// allgatherRing is allgatherChunks on the eager path: in p-1 steps each
// rank passes the chunk it last completed to its ring successor.
func (c *Comm) allgatherRing(buf []float32, tagBase int) {
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
// rank holds all contributions. It is AllgatherInPlace over blocks of per:
// a ring of pooled copies below the in-place cutover, reads straight from
// the peers' buffers at or above it. The tag parameter gives the ring a
// private window (Split uses one); pass 0 otherwise.
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
// ONE message (or, for large chunks, one view of the whole buffer), so the
// exchange costs p-1 sends per rank regardless of slab count — the shape
// the performance model prices. buf is left untouched; hand the result
// back with Release when consumed.
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
	if c.inPlace(len(buf)) {
		views := c.postViews(buf)
		lo, hi := chunk(c.rank)
		foldViews(views, slabs, lo, hi, op, mine)
		c.releaseViews(views)
	} else {
		c.foldRankOrder(buf, slabs, chunk, op, tagStableRS, mine)
	}
	c.obsColl(obs.StageReduceScatter, t, len(buf))
	return mine
}

// inPlace reports whether a collective over an n-word buffer takes the
// in-place path: its mean per-rank chunk is at least viewMinChunk words.
// Every rank passes the same n, so every rank takes the same path.
func (c *Comm) inPlace(n int) bool { return n/c.Size() >= viewMinChunk }

// postViews posts a read-only view of buf to every peer and collects
// theirs: on return views[q] is rank q's whole buffer and views[c.rank] is
// buf. The slice is the handle's own, reused by the next collective. Until
// releaseViews, peers may read any part of buf that the collective
// assigns them, so the caller writes only the ranges no peer reads.
func (c *Comm) postViews(buf []float32) [][]float32 {
	p := c.Size()
	for s := 1; s < p; s++ {
		c.SendNoCopy((c.rank+s)%p, tagView, buf)
	}
	if len(c.views) != p {
		c.views = make([][]float32, p)
	}
	for s := 0; s < p; s++ {
		q := (c.rank - s + p) % p
		if q == c.rank {
			c.views[q] = buf
			continue
		}
		v := c.recvView(q, tagView)
		if len(v) != len(buf) {
			panic(fmt.Sprintf("comm: rank %d's buffer has %d words, rank %d's %d", q, len(v), c.rank, len(buf)))
		}
		c.views[q] = v
	}
	return c.views
}

// signalPeers sends every peer an empty message on tag.
func (c *Comm) signalPeers(tag int) {
	p := c.Size()
	for s := 1; s < p; s++ {
		c.SendNoCopy((c.rank+s)%p, tag, nil)
	}
}

// gatherViews copies every peer's balanced chunk of buf out of its view.
// With final set it first waits for the peer's tagViewFinal signal, which
// the peer sends once that chunk is folded (and it has stopped reading
// this rank's copy of it).
func (c *Comm) gatherViews(views [][]float32, buf []float32, final bool) {
	p := len(views)
	for s := 1; s < p; s++ {
		q := (c.rank + s) % p
		if final {
			c.recvView(q, tagViewFinal)
		}
		lo, hi := ringChunk(len(buf), p, q)
		copy(buf[lo:hi], views[q][lo:hi])
	}
}

// releaseViews acknowledges every peer's view, then waits until every peer
// has acknowledged this rank's: after it returns no peer reads buf again.
func (c *Comm) releaseViews(views [][]float32) {
	p := len(views)
	c.signalPeers(tagViewAck)
	clear(views)
	for s := 1; s < p; s++ {
		c.recvView((c.rank-s+p)%p, tagViewAck)
	}
}

// foldViews is foldRankOrder reading the contributions in place: views[q]
// is rank q's buffer of slabs rows, and out (slabs * (hi-lo) words,
// slab-major) receives ((x0 op x1) op x2) ... op x_{p-1} over [lo, hi) of
// every row. It folds one foldBlock of every view before the next, in
// rank order with x0 as the first operand, so the result is bitwise
// foldRankOrder's. out may alias the owner's own view over [lo, hi):
// each element of it is read before it is written.
func foldViews(views [][]float32, slabs, lo, hi int, op Op, out []float32) {
	p := len(views)
	n := hi - lo
	rowLen := len(views[0]) / slabs
	var acc []float32
	if p > 2 {
		acc = getBuf(min(n, foldBlock))
	}
	for s := 0; s < slabs; s++ {
		base := s*rowLen + lo
		for b := 0; b < n; b += foldBlock {
			e := min(b+foldBlock, n)
			x := func(q int) []float32 { return views[q][base+b : base+e] }
			dst := out[s*n+b : s*n+e]
			if p == 2 {
				op.apply(dst, x(0), x(1))
				continue
			}
			a := acc[:e-b]
			op.apply(a, x(0), x(1))
			for q := 2; q < p-1; q++ {
				op.apply(a, a, x(q))
			}
			op.apply(dst, a, x(p-1))
		}
	}
	if acc != nil {
		putBuf(acc)
	}
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
