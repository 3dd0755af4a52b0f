package serve

import (
	"testing"
	"time"
)

// Octave boundaries are where the eighth-log2 bucketing is easiest to get
// wrong: the mantissa sub-bits only exist from the 8µs octave up.
func TestLatBucketEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},                       // sub-µs clamps to the 1µs bucket
		{500 * time.Nanosecond, 0},   // ditto
		{time.Microsecond, 0},        // first bucket proper
		{2 * time.Microsecond, 8},    // octave 1; no sub-bits below 8µs
		{3 * time.Microsecond, 8},    //
		{7 * time.Microsecond, 16},   // last value of octave 2
		{8 * time.Microsecond, 24},   // first octave with mantissa bits
		{9 * time.Microsecond, 25},   // ... resolved at 1µs here
		{15 * time.Microsecond, 31},  // top sub-bucket of the 8µs octave
		{16 * time.Microsecond, 32},  // next octave, sub 0
		{24 * time.Microsecond, 36},  // halfway through the 16µs octave
		{4 * time.Hour, 269},         // deep in-range octave (e=33, sub=5)
		{1 << 62, latBuckets - 1},    // overflow clamps to the last bucket
		{time.Duration(-1) << 20, 0}, // negative (clock skew) clamps low
	}
	for _, c := range cases {
		if got := latBucket(c.d); got != c.want {
			t.Errorf("latBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLatBucketUpperMonotonic(t *testing.T) {
	// Octaves below 8µs have no mantissa sub-buckets: only b = 8e is
	// reachable there, so monotonicity is checked over reachable buckets.
	var reachable []int
	for b := 0; b < latBuckets; b++ {
		if b < 24 && b%8 != 0 {
			continue
		}
		reachable = append(reachable, b)
	}
	prev := time.Duration(-1)
	for _, b := range reachable {
		u := latBucketUpper(b)
		if u <= prev {
			t.Fatalf("latBucketUpper(%d) = %v, not above the previous reachable edge %v", b, u, prev)
		}
		prev = u
	}
}

// Every bucket's recorded values must report at or below the bucket's upper
// edge — the quantile contract.
func TestLatBucketUpperBoundsBucket(t *testing.T) {
	for _, d := range []time.Duration{
		time.Microsecond, 5 * time.Microsecond, 8 * time.Microsecond,
		100 * time.Microsecond, 3 * time.Millisecond, 7 * time.Second,
	} {
		b := latBucket(d)
		if u := latBucketUpper(b); d > u {
			t.Errorf("latBucket(%v) = %d but upper edge %v is below the value", d, b, u)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h [latBuckets]uint64
	if got := Quantile(h[:], 0.99); got != 0 {
		t.Errorf("Quantile of empty histogram = %v, want 0", got)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var h [latBuckets]uint64
	b := latBucket(100 * time.Microsecond)
	h[b] = 10
	want := latBucketUpper(b)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(h[:], q); got != want {
			t.Errorf("Quantile(q=%v) = %v, want %v", q, got, want)
		}
	}
}

// Known distribution: 90 fast samples, 10 slow ones. The p50 and p89 land
// in the fast bucket; p90 is the 91st-ranked sample — the first slow one.
func TestQuantileKnownDistribution(t *testing.T) {
	var h [latBuckets]uint64
	fast := latBucket(10 * time.Microsecond)
	slow := latBucket(time.Millisecond)
	h[fast] = 90
	h[slow] = 10
	if got, want := Quantile(h[:], 0.50), latBucketUpper(fast); got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := Quantile(h[:], 0.89), latBucketUpper(fast); got != want {
		t.Errorf("p89 = %v, want %v", got, want)
	}
	if got, want := Quantile(h[:], 0.90), latBucketUpper(slow); got != want {
		t.Errorf("p90 = %v, want %v", got, want)
	}
	if got, want := Quantile(h[:], 1.0), latBucketUpper(slow); got != want {
		t.Errorf("p100 = %v, want %v", got, want)
	}
}

// snapshot renders one collector; Stats() aggregates across collectors via
// snapshotStats.
func (c *statsCollector) snapshot() Stats {
	return snapshotStats([]*statsCollector{c})
}
