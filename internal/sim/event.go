package sim

// The event heap. A binary min-heap ordered by (at, seq): seq is the
// global insertion counter, so simultaneous events fire in the order they
// were scheduled — the tie-break that makes same-seed runs bitwise
// identical regardless of heap internals.

type evKind uint8

const (
	evArrival      evKind = iota // next open-loop request arrives
	evFlush                      // forming batch hits its deadline
	evBatchArrive                // dispatched batch lands on a replica queue
	evServiceDone                // replica finishes a service slice
	evResultArrive               // batch results land back on the front-end
	evDetect                     // failure detector notices a dead replica
	evRejoin                     // quarantined replica rejoins the fleet
	evLost                       // a dispatched batch message was dropped
	evAdmit                      // a front-end finishes admitting a request
)

type event struct {
	at    int64
	seq   uint64
	kind  evKind
	g     int       // replica group, where relevant
	b     *simBatch // batch, where relevant
	epoch uint32    // batch/replica epoch guard captured at scheduling
	req   arrival   // evAdmit: the request being admitted
	reqAt int64     // evAdmit: its original arrival instant
}

type eventHeap struct {
	ev  []event
	seq uint64
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	if h.ev[i].at != h.ev[j].at {
		return h.ev[i].at < h.ev[j].at
	}
	return h.ev[i].seq < h.ev[j].seq
}

func (h *eventHeap) push(e event) {
	e.seq = h.seq
	h.seq++
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{}
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.ev[i], h.ev[s] = h.ev[s], h.ev[i]
		i = s
	}
	return top
}
