// Package obs is the runtime's flight recorder: a zero-allocation,
// always-compiled-in tracing layer in the mold of the comm fault injector.
// Every instrumentation hook in the serving stack (request lifecycle in
// internal/serve, sends/receives/collectives in internal/comm, kernel
// phases in internal/kernels and nn) costs a single atomic load while
// tracing is disabled; with tracing enabled, recording a span is a clock
// read plus a handful of atomic stores into a preallocated per-rank ring —
// no locks, no heap allocations, test-enforced by AllocsPerRun in both
// states.
//
// The model is one Ring per comm world rank ("track"): rank goroutines
// record into their own ring through an atomic cursor, so concurrent ranks
// never contend. Enable starts a recording epoch, Disable stops it, and
// Snapshot collects every event of the current epoch across all tracks.
// WriteChrome renders a snapshot as Chrome trace-event JSON — loadable in
// Perfetto / chrome://tracing with one named track per rank — which is what
// the serve HTTP layer's /tracez endpoint and cmd/serve -trace-out emit.
//
// Event slots are written field-by-field with atomics rather than under a
// lock: a snapshot racing a writer can observe at most a torn (half-written)
// slot, which the epoch/sanity filter in Snapshot discards. That keeps the
// recording path wait-free and the whole package clean under the race
// detector.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies what a span measures. The serve stages decompose one
// request's life; the comm stages classify substrate operations; the kernel
// stages break a convolution forward into its phases.
type Stage uint16

// Span stages.
const (
	StageNone Stage = iota

	// Serve: request lifecycle on the front-end rank.
	StageAdmission // request admitted -> its batch dispatched
	StageBatch     // batch opened -> flushed to the router
	StageRoute     // router submit entered -> batch on the wire
	StageWire      // batch sent -> dequeued by the replica leader
	StageCompute   // replica executor forward pass
	StageGather    // result left the leader -> claimed by the collector

	// Comm substrate.
	StageSend      // one point-to-point send (eager, near-zero duration)
	StageRecv      // receive wait: blocked until the message arrived
	StageAllreduce // blocking collectives, by kind
	StageBcast
	StageReduce
	StageCollGather
	StageAllgather
	StageReduceScatter
	StageAlltoAll
	StageBarrier
	StageProxyOp // one operation executed on a proxy engine goroutine

	// Kernels + nn.
	StageLayerConv  // one conv layer forward (contains the gemm phases)
	StageLayerBN    // one batchnorm layer forward
	StageLayerOther // any other layer forward (relu/pool/add/...)
	StageIm2col     // batched im2col lowering
	// The pack stages name operands as the GEMM runs them: a skinny GEMM
	// that swaps its operands (kernels package doc, "Skinny GEMMs") packs
	// the caller's B in pack A and the caller's A in pack B.
	StageGemmPackA  // packing A micro-panels (one span per K panel)
	StageGemmPackB  // packing B strips (one span per (K,N) panel)
	StageGemmKernel // microkernel sweep (one span per (K,N) panel)
	StageUnshuffle  // batched conv output unshuffle + bias

	numStages
)

var stageNames = [numStages]string{
	StageNone:          "none",
	StageAdmission:     "admission",
	StageBatch:         "batch",
	StageRoute:         "route",
	StageWire:          "wire",
	StageCompute:       "compute",
	StageGather:        "gather",
	StageSend:          "send",
	StageRecv:          "recv",
	StageAllreduce:     "allreduce",
	StageBcast:         "bcast",
	StageReduce:        "reduce",
	StageCollGather:    "coll_gather",
	StageAllgather:     "allgather",
	StageReduceScatter: "reduce_scatter",
	StageAlltoAll:      "alltoall",
	StageBarrier:       "barrier",
	StageProxyOp:       "proxy_op",
	StageLayerConv:     "layer_conv",
	StageLayerBN:       "layer_bn",
	StageLayerOther:    "layer",
	StageIm2col:        "im2col",
	StageGemmPackA:     "gemm_pack_a",
	StageGemmPackB:     "gemm_pack_b",
	StageGemmKernel:    "gemm_kernel",
	StageUnshuffle:     "unshuffle",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Class is the comm tag class of a span: which tag space the traffic lives
// in. Zero for non-comm spans.
type Class uint8

// Tag classes.
const (
	ClassNone  Class = iota
	ClassUser        // user point-to-point tags (below the collective base)
	ClassColl        // collective tag window
	ClassProxy       // proxy-engine shadow communicator traffic
)

func (c Class) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassColl:
		return "coll"
	case ClassProxy:
		return "proxy"
	default:
		return ""
	}
}

// Event is one completed span, as returned by Snapshot.
type Event struct {
	Start int64 // UnixNano
	Dur   int64 // nanoseconds
	ID    uint64
	Arg   int64 // stage-specific: payload bytes, layer index, batch size...
	Stage Stage
	Class Class
	Track int // ring (comm world rank) the span was recorded on
}

// slot is one ring entry. Fields are individually atomic so a concurrent
// snapshot observes, at worst, a torn slot that the epoch filter rejects —
// never a data race.
type slot struct {
	start atomic.Int64
	dur   atomic.Int64
	id    atomic.Uint64
	arg   atomic.Int64
	meta  atomic.Uint64 // stage<<8 | class
}

// Ring is one track's fixed-capacity event buffer. Recording advances an
// atomic cursor and overwrites the oldest slot; there is no locking and no
// allocation.
type Ring struct {
	slots  []slot
	mask   uint64
	track  int
	cursor atomic.Uint64
}

// Record stores a span that started at start (a Start() token) and ends
// now. A zero start (tracing was disabled at Start) and a nil ring are both
// no-ops, so call sites need no branches.
func (r *Ring) Record(st Stage, cl Class, id uint64, start int64, arg int64) {
	if r == nil || start == 0 {
		return
	}
	r.RecordSpan(st, cl, id, start, time.Now().UnixNano(), arg)
}

// RecordSpan stores a span with an explicit [start, end] extent, for spans
// whose start predates the hook (wire transfers timed from a header
// timestamp). Nil ring or zero start are no-ops.
func (r *Ring) RecordSpan(st Stage, cl Class, id uint64, start, end int64, arg int64) {
	if r == nil || start == 0 {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	s := &r.slots[(r.cursor.Add(1)-1)&r.mask]
	s.start.Store(start)
	s.dur.Store(dur)
	s.id.Store(id)
	s.arg.Store(arg)
	s.meta.Store(uint64(st)<<8 | uint64(cl))
}

// ringSet is the installed track table, swapped atomically by Configure.
type ringSet struct {
	rings []*Ring
}

var (
	enabled atomic.Bool
	epochNs atomic.Int64
	state   atomic.Pointer[ringSet]
	confMu  sync.Mutex
)

// Configure installs (or grows) the track table: tracks rings of at least
// capacity events each. Existing rings large enough are kept, so repeated
// calls from successive servers in one process are cheap and never shrink
// the table under a concurrent recorder. Growth requires tracing to be
// disabled.
func Configure(tracks, capacity int) {
	if tracks < 1 {
		tracks = 1
	}
	cap2 := 64
	for cap2 < capacity {
		cap2 <<= 1
	}
	confMu.Lock()
	defer confMu.Unlock()
	old := state.Load()
	if old != nil && len(old.rings) >= tracks && len(old.rings[0].slots) >= cap2 {
		return
	}
	if enabled.Load() {
		panic("obs: Configure needs growth while tracing is enabled; Disable first")
	}
	if old != nil && len(old.rings[0].slots) > cap2 {
		cap2 = len(old.rings[0].slots)
	}
	ns := &ringSet{rings: make([]*Ring, tracks)}
	for t := range ns.rings {
		if old != nil && t < len(old.rings) && len(old.rings[t].slots) == cap2 {
			ns.rings[t] = old.rings[t]
			continue
		}
		ns.rings[t] = &Ring{slots: make([]slot, cap2), mask: uint64(cap2 - 1), track: t}
	}
	state.Store(ns)
}

// Enable starts a recording epoch. Events recorded before the last Enable
// are excluded from Snapshot, so rings reused across epochs never leak
// stale spans.
func Enable() {
	epochNs.Store(time.Now().UnixNano())
	enabled.Store(true)
}

// Disable stops recording. In-flight spans whose Start preceded the
// Disable may still land in the rings; they belong to the epoch and are
// kept by Snapshot.
func Disable() { enabled.Store(false) }

// Enabled reports whether tracing is on: the one atomic load every hook
// pays when idle.
func Enabled() bool { return enabled.Load() }

// Start returns the span-start token: 0 when tracing is disabled (making
// the later Record a no-op), the current UnixNano otherwise. This is the
// entire disabled-path cost of a hook.
func Start() int64 {
	if !enabled.Load() {
		return 0
	}
	return time.Now().UnixNano()
}

// RingFor returns the ring of the given track (comm world rank), clamped
// into the configured range; nil before any Configure. Call sites only
// reach it when Start returned non-zero.
func RingFor(track int) *Ring {
	s := state.Load()
	if s == nil {
		return nil
	}
	if track < 0 {
		track = 0
	}
	if track >= len(s.rings) {
		track = len(s.rings) - 1
	}
	return s.rings[track]
}

// Snapshot collects every event of the current epoch across all tracks,
// sorted by start time. Call it with tracing disabled (or accept that a
// handful of spans recorded mid-snapshot may be missed); torn slots from
// concurrent writers are filtered out.
func Snapshot() []Event {
	s := state.Load()
	if s == nil {
		return nil
	}
	epoch := epochNs.Load()
	var out []Event
	for _, r := range s.rings {
		n := r.cursor.Load()
		if n > uint64(len(r.slots)) {
			n = uint64(len(r.slots))
		}
		for i := uint64(0); i < n; i++ {
			sl := &r.slots[i]
			ev := Event{
				Start: sl.start.Load(),
				Dur:   sl.dur.Load(),
				ID:    sl.id.Load(),
				Arg:   sl.arg.Load(),
				Track: r.track,
			}
			meta := sl.meta.Load()
			ev.Stage = Stage(meta >> 8)
			ev.Class = Class(meta & 0xff)
			if ev.Start < epoch || ev.Dur < 0 || ev.Stage == StageNone || ev.Stage >= numStages {
				continue
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
