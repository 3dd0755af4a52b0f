package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"text/tabwriter"
)

// Latency histogram: eighth-log2 buckets over microseconds, the same
// resolution the serving flight recorder uses, implemented with integer
// bit arithmetic so bucketing is exact and platform-independent.
const latBuckets = 44 * 8

func latBucket(ns int64) int {
	u := uint64(ns) / 1000
	if u < 1 {
		u = 1
	}
	hi := bits.Len64(u) - 1
	frac := 0
	if hi >= 3 {
		frac = int((u >> (hi - 3)) & 7)
	} else {
		frac = int((u << (3 - hi)) & 7)
	}
	idx := hi*8 + frac
	if idx >= latBuckets {
		idx = latBuckets - 1
	}
	return idx
}

// latValue is a bucket's lower-edge latency in microseconds.
func latValue(idx int) int64 {
	hi := idx / 8
	frac := idx % 8
	return int64((8 + uint64(frac)) << uint(hi) / 8)
}

// accum collects one run's metrics.
type accum struct {
	offered, served, shedFull, shedExpired, failed, lateServed uint64
	batches, dispatches, retries, recovered                    uint64
	kills, detections, rejoins                                 uint64
	samples                                                    uint64
	hist                                                       [latBuckets]uint64
	tenantOffered, tenantServed                                []uint64
	simEnd                                                     int64
}

func (a *accum) init(tenants int) {
	if tenants > 1 {
		a.tenantOffered = make([]uint64, tenants)
		a.tenantServed = make([]uint64, tenants)
	}
}

func (a *accum) record(latNs int64) {
	a.hist[latBucket(latNs)]++
	a.samples++
}

// quantile returns the q-quantile latency in microseconds.
func (a *accum) quantile(q float64) int64 {
	if a.samples == 0 {
		return 0
	}
	target := uint64(q * float64(a.samples))
	if target >= a.samples {
		target = a.samples - 1
	}
	var seen uint64
	for i, c := range a.hist {
		seen += c
		if seen > target {
			return latValue(i)
		}
	}
	return latValue(latBuckets - 1)
}

// fairness is Jain's index over per-tenant service ratios: 1.0 when
// every tenant gets the same served/offered fraction, 1/n when one
// tenant monopolizes. Single-tenant traffic scores 1.
func (a *accum) fairness() float64 {
	var sum, sumSq float64
	n := 0
	for t, off := range a.tenantOffered {
		if off == 0 {
			continue
		}
		x := float64(a.tenantServed[t]) / float64(off)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Scorecard is one (policy, cell) row of a sweep: the serving metrics a
// routing policy is judged on.
type Scorecard struct {
	Policy   string  `json:"policy"`
	Fleet    string  `json:"fleet"`
	Replicas int     `json:"replicas"`
	Load     float64 `json:"load"`
	Tail     string  `json:"tail"`
	Faulty   bool    `json:"faulty,omitempty"`

	OfferedPerMin float64 `json:"offered_per_min"`
	Offered       uint64  `json:"offered"`
	Served        uint64  `json:"served"`
	ShedFull      uint64  `json:"shed_full"`
	ShedExpired   uint64  `json:"shed_expired"`
	Failed        uint64  `json:"failed"`
	LateServed    uint64  `json:"late_served"`

	ThroughputRPS float64 `json:"throughput_rps"`
	AvgBatch      float64 `json:"avg_batch"`
	P50us         int64   `json:"p50_us"`
	P99us         int64   `json:"p99_us"`
	P999us        int64   `json:"p999_us"`
	ShedRate      float64 `json:"shed_rate"`
	Fairness      float64 `json:"fairness"`

	Retries   uint64 `json:"retries,omitempty"`
	Recovered uint64 `json:"recovered,omitempty"`
	Kills     uint64 `json:"kills,omitempty"`
	Rejoins   uint64 `json:"rejoins,omitempty"`
}

// scorecard folds an accum into a row; meta fields are the caller's.
func (a *accum) scorecard() Scorecard {
	sc := Scorecard{
		Offered:     a.offered,
		Served:      a.served,
		ShedFull:    a.shedFull,
		ShedExpired: a.shedExpired,
		Failed:      a.failed,
		LateServed:  a.lateServed,
		P50us:       a.quantile(0.50),
		P99us:       a.quantile(0.99),
		P999us:      a.quantile(0.999),
		Fairness:    round4(a.fairness()),
		Retries:     a.retries,
		Recovered:   a.recovered,
		Kills:       a.kills,
		Rejoins:     a.rejoins,
	}
	if a.simEnd > 0 {
		sc.ThroughputRPS = round2(float64(a.served) / (float64(a.simEnd) / 1e9))
	}
	if a.batches > 0 {
		sc.AvgBatch = round2(float64(a.served) / float64(a.batches))
	}
	if a.offered > 0 {
		sc.ShedRate = round4(float64(a.shedFull+a.shedExpired+a.failed) / float64(a.offered))
		sc.OfferedPerMin = round2(float64(a.offered) / (float64(a.simEnd) / 6e10))
	}
	return sc
}

// Scorecard runs the world to completion and folds its metrics into a
// row (meta fields left for the caller). Single-cell convenience; sweeps
// go through RunSweep.
func (w *World) Scorecard() Scorecard {
	return w.Run().scorecard()
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }

// Result is a full sweep's output: deterministic row order, stable JSON.
type Result struct {
	Seed     int64       `json:"seed"`
	Duration int64       `json:"duration_ns"`
	Rows     []Scorecard `json:"rows"`
}

// JSON renders the result byte-identically for identical runs: only
// structs and slices are serialized, never maps.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteTable renders the scorecard grouped by cell, one row per policy,
// best p99 first within each cell.
func (r *Result) WriteTable(w io.Writer) {
	cells := map[string][]Scorecard{}
	var order []string
	for _, sc := range r.Rows {
		key := fmt.Sprintf("fleet=%s load=%.2f tail=%s faulty=%v", sc.Fleet, sc.Load, sc.Tail, sc.Faulty)
		if _, ok := cells[key]; !ok {
			order = append(order, key)
		}
		cells[key] = append(cells[key], sc)
	}
	for _, key := range order {
		rows := cells[key]
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].P99us < rows[j].P99us })
		fmt.Fprintf(w, "--- %s offered=%.0f req/min\n", key, rows[0].OfferedPerMin)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "policy\tthruput\tp50us\tp99us\tp999us\tshed\tfair\tretries\tavg_batch")
		for _, sc := range rows {
			fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%d\t%.2f%%\t%.3f\t%d\t%.1f\n",
				sc.Policy, sc.ThroughputRPS, sc.P50us, sc.P99us, sc.P999us,
				sc.ShedRate*100, sc.Fairness, sc.Retries, sc.AvgBatch)
		}
		tw.Flush()
	}
}

// WorstRatio returns the worst p99 ratio of policy `name` against policy
// `ref` across all cells both appear in (1.0 = always matches ref). It
// is the CI gate: the shipped production policy must stay within a fixed
// factor of the omniscient ideal bound.
func (r *Result) WorstRatio(name, ref string) float64 {
	type cell struct{ a, b int64 }
	cells := map[string]*cell{}
	for _, sc := range r.Rows {
		key := fmt.Sprintf("%s|%.4f|%s|%v", sc.Fleet, sc.Load, sc.Tail, sc.Faulty)
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
		}
		switch sc.Policy {
		case name:
			c.a = sc.P99us
		case ref:
			c.b = sc.P99us
		}
	}
	worst := 0.0
	for _, c := range cells {
		if c.a == 0 || c.b == 0 {
			continue
		}
		if ratio := float64(c.a) / float64(c.b); ratio > worst {
			worst = ratio
		}
	}
	return worst
}
