package serve

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// latBuckets is the size of the latency histogram: eighth-log2 buckets of
// microseconds (8 sub-buckets per power of two, ~9% resolution), covering
// 1µs..~4.7h. The earlier quarter-log2 (~25%) buckets were fine for
// dashboards but made p99 SLO arithmetic snap to bucket edges.
const latBuckets = 8 * 44

// statsCollector is one metrics sink: every counter is an atomic, so the
// zero-alloc Predict path records without locking. Each front-end owns a
// collector (its counters are touched only by that front-end's goroutines
// plus its callers), the server owns one more for fleet-level transitions
// (quarantines, rejoins), and Stats()/snapshotStats aggregate them.
//
// The outcome counters obey request conservation: every request counted in
// offered is eventually counted in exactly one of requests (served),
// shedFull, shedExpired, shedQuota, canceled, or failed — the serving-side
// mirror of the sim's served + shed + failed == offered invariant, and the
// cross-front-end conservation test holds the aggregate to it.
type statsCollector struct {
	// offered counts every request that passed validation and entered the
	// serving pipeline (in-process, HTTP, or a binary frame header).
	offered  atomic.Uint64
	requests atomic.Uint64 // served: resolved with an answer
	batches  atomic.Uint64
	samples  atomic.Uint64 // total samples across batches (== requests served)

	// Admission-control shed counters: shedFull counts rejects on a full
	// admission lane, shedExpired counts requests whose deadline passed
	// before a replica could take them, shedQuota counts binary frames
	// rejected at the socket by a tenant token bucket (before their payload
	// was even read).
	shedFull    atomic.Uint64
	shedExpired atomic.Uint64
	shedQuota   atomic.Uint64

	// canceled counts requests abandoned by their caller's context; failed
	// counts requests resolved with ErrFailed, ErrUnavailable, or
	// ErrClosed.
	canceled atomic.Uint64
	failed   atomic.Uint64

	// Failure-path counters. retries counts batch re-dispatches after a
	// replica failure; failovers is the subset that moved to a different
	// replica; quarantined and rejoins count replica life transitions
	// (fleet-level: counted once, not per front-end); droppedResults counts
	// stale results discarded by seq dedup (the at-most-once guard).
	retries        atomic.Uint64
	failovers      atomic.Uint64
	quarantined    atomic.Uint64
	rejoins        atomic.Uint64
	droppedResults atomic.Uint64

	latency   [latBuckets]atomic.Uint64
	occupancy []atomic.Uint64 // index b-1: batches flushed with b requests

	// stageLat decomposes where request time goes: one eighth-log2
	// histogram per pipeline stage (queue wait, batch wait, route, wire,
	// compute, gather). Queue/batch-wait are recorded per request on the
	// front end; route/wire/compute/gather once per batch from the wire
	// protocol's timing fields. Always on — recording is two atomic adds.
	stageLat [nStages][latBuckets]atomic.Uint64
}

// stage indexes the per-stage latency-decomposition histograms.
type stage int

// Pipeline stages, in request-lifecycle order.
const (
	stgQueueWait stage = iota // admission -> picked into a batch
	stgBatchWait              // batch opened -> dispatched; contains stgRoute
	stgRoute                  // router submit -> batch on the wire
	stgWire                   // batch sent -> dequeued by the replica leader, incl. its wait for a core and mailbox queueing
	stgCompute                // replica executor forward pass
	stgGather                 // result sent by the leader -> claimed, incl. the collector's wait for a core
	nStages
)

var stageNames = [nStages]string{"queue_wait", "batch_wait", "route", "wire", "compute", "gather"}

func (s stage) String() string { return stageNames[s] }

func newStatsCollector(maxBatch int) *statsCollector {
	return &statsCollector{occupancy: make([]atomic.Uint64, maxBatch)}
}

// latBucket maps a duration to its histogram bucket: e = floor(log2(µs)),
// plus three mantissa bits for 8 sub-buckets per octave (~9% resolution).
func latBucket(d time.Duration) int {
	if d < 0 {
		d = 0 // clock skew between recording sites clamps low, not to +inf
	}
	us := uint64(d.Microseconds())
	if us < 1 {
		us = 1
	}
	e := bits.Len64(us) - 1 // 2^e <= us < 2^(e+1)
	sub := 0
	if e >= 3 {
		sub = int((us >> (uint(e) - 3)) & 7)
	}
	b := 8*e + sub
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// latBucketUpper is the inclusive upper edge of bucket b, the value
// quantiles report.
func latBucketUpper(b int) time.Duration {
	e, sub := b/8, b%8
	var us uint64
	if e < 3 {
		// Octaves below 8µs have no mantissa bits; the whole octave is one
		// bucket whose upper edge is the next power of two.
		us = uint64(1) << uint(e+1)
	} else {
		us = (uint64(1) << uint(e)) + uint64(sub+1)<<uint(e-3)
	}
	return time.Duration(us) * time.Microsecond
}

func (c *statsCollector) recordLatency(d time.Duration) {
	c.requests.Add(1)
	c.latency[latBucket(d)].Add(1)
}

func (c *statsCollector) recordStage(st stage, d time.Duration) {
	c.stageLat[st][latBucket(d)].Add(1)
}

func (c *statsCollector) recordBatch(n int) {
	c.batches.Add(1)
	c.samples.Add(uint64(n))
	if n >= 1 && n <= len(c.occupancy) {
		c.occupancy[n-1].Add(1)
	}
}

// ReplicaStats is one replica's point-in-time routing view.
type ReplicaStats struct {
	// Ranks is the replica's comm-rank count (1 = unsharded InferNet,
	// >1 = placement-sharded DistInferNet group).
	Ranks int `json:"ranks"`
	// Batches served by this replica.
	Batches uint64 `json:"batches"`
	// InFlight is the front-end view, summed across front-ends: batches
	// sent, result not yet back.
	InFlight int `json:"in_flight"`
	// QueueDepth is the replica's last occupancy heartbeat: batches queued
	// or executing on the replica side.
	QueueDepth int `json:"queue_depth"`
	// State is the replica's liveness: "live", "quarantined", or
	// "rejoining".
	State string `json:"state"`
}

// FrontEndStats is one front-end's share of the outcome accounting; the
// conservation identity Offered == Requests + ShedFull + ShedExpired +
// ShedQuota + Canceled + Failed holds per front-end (once its in-flight
// requests resolve) and therefore in aggregate.
type FrontEndStats struct {
	Offered     uint64        `json:"offered"`
	Requests    uint64        `json:"requests"`
	Batches     uint64        `json:"batches"`
	ShedFull    uint64        `json:"shed_full"`
	ShedExpired uint64        `json:"shed_expired"`
	ShedQuota   uint64        `json:"shed_quota"`
	Canceled    uint64        `json:"canceled"`
	Failed      uint64        `json:"failed"`
	P50         time.Duration `json:"p50_us"`
	P99         time.Duration `json:"p99_us"`
}

func (c *statsCollector) frontEndStats() FrontEndStats {
	var hist [latBuckets]uint64
	for i := range c.latency {
		hist[i] = c.latency[i].Load()
	}
	return FrontEndStats{
		Offered:     c.offered.Load(),
		Requests:    c.requests.Load(),
		Batches:     c.batches.Load(),
		ShedFull:    c.shedFull.Load(),
		ShedExpired: c.shedExpired.Load(),
		ShedQuota:   c.shedQuota.Load(),
		Canceled:    c.canceled.Load(),
		Failed:      c.failed.Load(),
		P50:         Quantile(hist[:], 0.50),
		P99:         Quantile(hist[:], 0.99),
	}
}

// Stats is a point-in-time snapshot of the server's metrics, aggregated
// across every front-end.
type Stats struct {
	// Offered counts every validated request that entered the pipeline;
	// conservation: Offered == Requests + ShedFull + ShedExpired +
	// ShedQuota + Canceled + Failed once in-flight requests resolve.
	Offered  uint64 `json:"offered"`
	Requests uint64 `json:"requests"`
	Batches  uint64 `json:"batches"`
	// AvgBatch is mean flushed batch occupancy: requests served / batches.
	AvgBatch float64 `json:"avg_batch"`
	// ShedFull counts requests rejected on a full admission lane;
	// ShedExpired counts requests dropped after their deadline passed;
	// ShedQuota counts binary frames shed at the socket by tenant quotas.
	ShedFull    uint64 `json:"shed_full"`
	ShedExpired uint64 `json:"shed_expired"`
	ShedQuota   uint64 `json:"shed_quota"`
	// Canceled counts caller-abandoned requests; Failed counts requests
	// lost to replica failure, no-live-replica fail-fast, or shutdown.
	Canceled uint64 `json:"canceled"`
	Failed   uint64 `json:"failed"`
	// Failure-path counters: batch re-dispatches, the subset that changed
	// replica, replica quarantine/rejoin transitions, and stale results
	// dropped by the at-most-once seq guard.
	Retries        uint64 `json:"retries"`
	Failovers      uint64 `json:"failovers"`
	Quarantined    uint64 `json:"quarantined"`
	Rejoins        uint64 `json:"rejoins"`
	DroppedResults uint64 `json:"dropped_results"`
	// Latency quantiles are upper bucket edges (~9% resolution).
	P50 time.Duration `json:"p50_us"`
	P90 time.Duration `json:"p90_us"`
	P95 time.Duration `json:"p95_us"`
	P99 time.Duration `json:"p99_us"`
	// Occupancy[i] counts batches that flushed with i+1 requests.
	Occupancy []uint64 `json:"batch_occupancy"`
	// Stages decomposes request time by pipeline stage, lifecycle order.
	Stages []StageStats `json:"stages"`
	// FrontEnds is the per-front-end outcome breakdown.
	FrontEnds []FrontEndStats `json:"front_ends,omitempty"`
	// Replicas is the per-replica routing state.
	Replicas []ReplicaStats `json:"replicas"`
	// Process-health gauges: "is the process itself sick" signals the
	// failover monitor cannot see from routing state alone.
	Goroutines   int           `json:"goroutines"`
	GCPauseTotal time.Duration `json:"gc_pause_total_us"`
	HeapInuse    uint64        `json:"heap_inuse_bytes"`
}

// StageStats is one pipeline stage's latency-decomposition summary.
type StageStats struct {
	Name  string        `json:"name"`
	Count uint64        `json:"count"`
	P50   time.Duration `json:"p50_us"`
	P90   time.Duration `json:"p90_us"`
	P99   time.Duration `json:"p99_us"`
}

// snapshotStats merges counters and histograms across collectors (the
// fleet-level one plus one per front-end) into one Stats.
func snapshotStats(cs []*statsCollector) Stats {
	var s Stats
	occLen := 0
	for _, c := range cs {
		s.Offered += c.offered.Load()
		s.Requests += c.requests.Load()
		s.Batches += c.batches.Load()
		s.ShedFull += c.shedFull.Load()
		s.ShedExpired += c.shedExpired.Load()
		s.ShedQuota += c.shedQuota.Load()
		s.Canceled += c.canceled.Load()
		s.Failed += c.failed.Load()
		s.Retries += c.retries.Load()
		s.Failovers += c.failovers.Load()
		s.Quarantined += c.quarantined.Load()
		s.Rejoins += c.rejoins.Load()
		s.DroppedResults += c.droppedResults.Load()
		if len(c.occupancy) > occLen {
			occLen = len(c.occupancy)
		}
	}
	s.Occupancy = make([]uint64, occLen)
	var samples uint64
	for _, c := range cs {
		samples += c.samples.Load()
		for i := range c.occupancy {
			s.Occupancy[i] += c.occupancy[i].Load()
		}
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(samples) / float64(s.Batches)
	}
	var hist [latBuckets]uint64
	for _, c := range cs {
		for i := range c.latency {
			hist[i] += c.latency[i].Load()
		}
	}
	s.P50 = Quantile(hist[:], 0.50)
	s.P90 = Quantile(hist[:], 0.90)
	s.P95 = Quantile(hist[:], 0.95)
	s.P99 = Quantile(hist[:], 0.99)
	s.Stages = make([]StageStats, nStages)
	for st := stage(0); st < nStages; st++ {
		var h [latBuckets]uint64
		var count uint64
		for _, c := range cs {
			for i := range c.stageLat[st] {
				h[i] += c.stageLat[st][i].Load()
			}
		}
		for i := range h {
			count += h[i]
		}
		s.Stages[st] = StageStats{
			Name:  st.String(),
			Count: count,
			P50:   Quantile(h[:], 0.50),
			P90:   Quantile(h[:], 0.90),
			P99:   Quantile(h[:], 0.99),
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.Goroutines = runtime.NumGoroutine()
	s.GCPauseTotal = time.Duration(mem.PauseTotalNs)
	s.HeapInuse = mem.HeapInuse
	return s
}

// Quantile reports the q-th quantile (0 <= q <= 1) of a latency histogram
// with latBucket's eighth-log2 microsecond layout, as the inclusive upper
// edge of the bucket holding that rank (~9% resolution). A histogram with
// no samples reports 0. Exported so dashboards and the calibration bench
// compute percentiles from scraped buckets exactly like /statz does.
func Quantile(hist []uint64, q float64) time.Duration {
	var total uint64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i, n := range hist {
		seen += n
		if seen > target {
			return latBucketUpper(i)
		}
	}
	return latBucketUpper(latBuckets - 1)
}
