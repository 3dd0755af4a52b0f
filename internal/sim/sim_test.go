package sim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/perfmodel"
	"repro/internal/sched"
)

func TestEventHeapOrdersByTimeThenSeq(t *testing.T) {
	var h eventHeap
	times := []int64{50, 10, 30, 10, 20, 10, 40}
	for i, at := range times {
		h.push(event{at: at, g: i})
	}
	var got []int64
	var order []int
	for h.len() > 0 {
		e := h.pop()
		got = append(got, e.at)
		if e.at == 10 {
			order = append(order, e.g)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("heap pop out of order: %v", got)
		}
	}
	// The three t=10 events carry g = 1, 3, 5 and must pop FIFO.
	want := []int{1, 3, 5}
	for i, g := range want {
		if order[i] != g {
			t.Fatalf("tie-break order %v, want %v", order, want)
		}
	}
}

func TestLatBucketMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{500, 1000, 2000, 5000, 100_000, 1_000_000, 50_000_000, 3_000_000_000} {
		b := latBucket(ns)
		if b < prev {
			t.Fatalf("bucket(%dns)=%d below previous %d", ns, b, prev)
		}
		prev = b
		if v := latValue(b); v > ns/1000+1 && ns >= 1000 {
			t.Fatalf("bucket lower edge %dus above sample %dns", v, ns)
		}
	}
}

func TestTrafficWorkFactorsUnitMean(t *testing.T) {
	for _, tail := range []TailSpec{
		{Name: "uniform"},
		{Name: "lognormal", Sigma: 1.5},
		{Name: "pareto", Sigma: 1.0, ParetoAlpha: 2.5, ParetoMix: 0.2},
	} {
		gen := newTrafficGen(Traffic{
			Rate: 1000, Sigma: tail.Sigma,
			ParetoAlpha: tail.ParetoAlpha, ParetoMix: tail.ParetoMix,
		}, 42)
		sum := 0.0
		const n = 200_000
		now := int64(0)
		for i := 0; i < n; i++ {
			dt, a := gen.next(now)
			now += dt
			sum += a.work
		}
		mean := sum / n
		if math.Abs(mean-1) > 0.1 {
			t.Errorf("tail %s: mean work %.3f, want ~1 (unit-mean contract)", tail.Name, mean)
		}
	}
}

func TestTrafficTenantSkew(t *testing.T) {
	gen := newTrafficGen(Traffic{Rate: 1000, Tenants: 8, TenantSkew: 1.2}, 7)
	counts := make([]int, 8)
	now := int64(0)
	for i := 0; i < 50_000; i++ {
		dt, a := gen.next(now)
		now += dt
		counts[a.tenant]++
	}
	if counts[0] <= counts[7] {
		t.Fatalf("Zipf skew inverted: tenant0=%d tenant7=%d", counts[0], counts[7])
	}
}

func leastLoaded(t *testing.T) sched.Policy {
	t.Helper()
	p, err := sched.New("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallConfig(pol sched.Policy) Config {
	groups := []int{1, 1, 1, 1}
	return Config{
		Seed:          99,
		Groups:        groups,
		Curves:        defaultCurveFor(groups, 8),
		MaxBatch:      8,
		BatchDeadline: 500_000,
		QueueDepth:    2,
		Policy:        pol,
		Traffic:       Traffic{Rate: 40_000, Sigma: 1.0},
		Duration:      500_000_000,
	}
}

// Conservation: after the world drains, every offered request is
// accounted for exactly once.
func conserve(t *testing.T, acc *accum) {
	t.Helper()
	total := acc.served + acc.shedFull + acc.shedExpired + acc.failed
	if total != acc.offered {
		t.Fatalf("conservation broken: served=%d shedFull=%d shedExpired=%d failed=%d != offered=%d",
			acc.served, acc.shedFull, acc.shedExpired, acc.failed, acc.offered)
	}
}

func TestWorldConservesRequests(t *testing.T) {
	w, err := NewWorld(smallConfig(leastLoaded(t)))
	if err != nil {
		t.Fatal(err)
	}
	acc := w.Run()
	if acc.offered == 0 || acc.served == 0 {
		t.Fatalf("no traffic flowed: offered=%d served=%d", acc.offered, acc.served)
	}
	conserve(t, acc)
	if acc.samples != acc.served {
		t.Fatalf("latency samples %d != served %d", acc.samples, acc.served)
	}
}

func TestWorldConservesUnderFailover(t *testing.T) {
	cfg := smallConfig(leastLoaded(t))
	cfg.Faults = &Faults{
		// World layout: rank 0 front-end, groups at ranks 1..4. Kill
		// rank 2 (group 1) after its 20th result; drop 1% of batches.
		Plan:        &comm.FaultPlan{Kill: map[int]int{2: 20}, Drop: 0.01},
		DetectDelay: 5_000_000,
		RejoinAfter: 50_000_000,
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := w.Run()
	conserve(t, acc)
	if acc.kills != 1 || acc.detections != 1 {
		t.Fatalf("kills=%d detections=%d, want 1/1", acc.kills, acc.detections)
	}
	if acc.rejoins != 1 {
		t.Fatalf("rejoins=%d, want 1", acc.rejoins)
	}
	if acc.retries == 0 {
		t.Fatal("failover produced no retries")
	}
	if acc.recovered == 0 {
		t.Fatal("no stranded batch was recovered")
	}
}

func TestDeadlineShedding(t *testing.T) {
	cfg := smallConfig(leastLoaded(t))
	// Deadline shorter than the batch deadline: riders arriving early in
	// a forming batch expire before the flush.
	cfg.Traffic.Deadline = 200_000
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := w.Run()
	conserve(t, acc)
	if acc.shedExpired == 0 {
		t.Fatal("tight deadlines shed nothing")
	}
}

func TestShinjukuPreemptsLongBatches(t *testing.T) {
	pol, err := sched.New("shinjuku")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(pol)
	// Heavy Pareto tail at high load so long batches exceed the quantum.
	cfg.Traffic.Sigma = 1.5
	cfg.Traffic.ParetoAlpha = 1.5
	cfg.Traffic.ParetoMix = 0.3
	cfg.Traffic.Rate = 60_000
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := w.Run()
	conserve(t, acc)
	if acc.preemptions == 0 {
		t.Fatal("shinjuku quantum never preempted under a heavy tail")
	}
}

func TestIdealNoWorseThanRandomOnHeavyTail(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Seed:     7,
		Policies: []string{"random", "ideal"},
		Fleets:   [][]int{{1, 1, 1, 1, 1, 1, 1, 1}},
		Loads:    []float64{0.7},
		Tails:    []TailSpec{{Name: "heavy", Sigma: 1.5, ParetoAlpha: 2.0, ParetoMix: 0.2}},
		Duration: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var random, ideal Scorecard
	for _, sc := range res.Rows {
		switch sc.Policy {
		case "random":
			random = sc
		case "ideal":
			ideal = sc
		}
	}
	if ideal.P99us > random.P99us {
		t.Fatalf("omniscient ideal p99 %dus worse than random %dus", ideal.P99us, random.P99us)
	}
}

// TestAdmitZeroIsByteIdentical: AdmitNS 0 must skip the admission stage
// entirely — a world with FrontEnds set but no admission cost replays the
// legacy configuration bit for bit (no extra events, no shifted seq
// numbers, identical scorecard).
func TestAdmitZeroIsByteIdentical(t *testing.T) {
	run := func(frontEnds int) Scorecard {
		cfg := smallConfig(leastLoaded(t))
		cfg.FrontEnds = frontEnds
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Scorecard()
	}
	legacy, staged := run(0), run(8)
	if legacy != staged {
		t.Fatalf("FrontEnds with AdmitNS=0 changed the run:\nlegacy %+v\nstaged %+v", legacy, staged)
	}
}

// TestFrontEndAdmissionCeiling: with a per-request admission cost that one
// front-end cannot sustain at the offered rate, requests queue at admission
// and expire before their batch flushes; doubling the front-ends doubles
// the admission ceiling and recovers the served fraction and the tail.
func TestFrontEndAdmissionCeiling(t *testing.T) {
	run := func(frontEnds int) Scorecard {
		cfg := smallConfig(leastLoaded(t))
		// 40k req/s offered against a 25µs admission cost: one front-end
		// admits at most 40k/s with zero slack, two have 2x headroom.
		cfg.FrontEnds = frontEnds
		cfg.AdmitNS = 25_000
		cfg.Traffic.Deadline = 2_000_000
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc := w.Run()
		total := acc.served + acc.shedFull + acc.shedExpired + acc.failed
		if total != acc.offered {
			t.Fatalf("conservation broken with %d front-ends: served=%d shedFull=%d shedExpired=%d failed=%d != offered=%d",
				frontEnds, acc.served, acc.shedFull, acc.shedExpired, acc.failed, acc.offered)
		}
		return acc.scorecard()
	}
	one, two := run(1), run(2)
	if one.ShedExpired == 0 {
		t.Fatal("saturated single front-end shed nothing: the admission stage is not queueing")
	}
	if two.Served <= one.Served {
		t.Fatalf("doubling front-ends did not raise served: 1 FE served=%d, 2 FEs served=%d", one.Served, two.Served)
	}
	if two.P99us >= one.P99us {
		t.Fatalf("doubling front-ends did not cut the tail: 1 FE p99=%dus, 2 FEs p99=%dus", one.P99us, two.P99us)
	}
}

func TestSweepSameSeedByteIdentical(t *testing.T) {
	cfg := SweepConfig{
		Seed:     123,
		Policies: []string{"least-loaded", "jsq2", "edf", "shinjuku", "ideal"},
		Fleets:   [][]int{{1, 1}, {1, 1, 1, 1}},
		Loads:    []float64{0.5, 0.9},
		Tails:    []TailSpec{{Name: "ln", Sigma: 1.0}},
		Duration: 300_000_000,
		Traffic:  Traffic{Process: "mmpp", Tenants: 4, TenantSkew: 1.1},
		FaultScenario: func(groups []int) *Faults {
			return &Faults{
				Plan:        &comm.FaultPlan{Kill: map[int]int{1: 30}},
				DetectDelay: 5_000_000,
				RejoinAfter: 50_000_000,
			}
		},
	}
	run := func() []byte {
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed sweep JSON differs between runs: determinism broken")
	}
	if len(a) < 100 {
		t.Fatalf("suspiciously small scorecard: %s", a)
	}
}

// The throughput floor from the issue: the simulator must push at least
// one million requests per simulated minute through a modest fleet.
func TestSimulatorRateFloor(t *testing.T) {
	groups := make([]int, 16)
	for i := range groups {
		groups[i] = 1
	}
	curves := defaultCurveFor(groups, 8)
	rate := 0.6 * Capacity(curves, 8)
	if perMin := rate * 60; perMin < 1_000_000 {
		t.Fatalf("fleet too small for the rate floor: %.0f req/min", perMin)
	}
	pol := leastLoaded(t)
	w, err := NewWorld(Config{
		Seed: 5, Groups: groups, Curves: curves,
		MaxBatch: 8, BatchDeadline: 500_000, QueueDepth: 2,
		Policy:  pol,
		Traffic: Traffic{Rate: rate, Sigma: 1.0},
		// 6 simulated seconds at >=16.7k req/s => >=100k events; the
		// full minute is exercised by cmd/sim, not the unit test.
		Duration: 6_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := w.Run()
	conserve(t, acc)
	sc := acc.scorecard()
	if sc.OfferedPerMin < 1_000_000 {
		t.Fatalf("offered rate %.0f/min below the 1M floor", sc.OfferedPerMin)
	}
	if sc.ShedRate > 0.05 {
		t.Fatalf("least-loaded shed %.1f%% at 60%% load", sc.ShedRate*100)
	}
}

func TestWorstRatio(t *testing.T) {
	res := &Result{Rows: []Scorecard{
		{Policy: "a", Fleet: "2x1", Load: 0.5, Tail: "t", P99us: 300},
		{Policy: "ideal", Fleet: "2x1", Load: 0.5, Tail: "t", P99us: 100},
		{Policy: "a", Fleet: "2x1", Load: 0.9, Tail: "t", P99us: 150},
		{Policy: "ideal", Fleet: "2x1", Load: 0.9, Tail: "t", P99us: 100},
	}}
	if r := res.WorstRatio("a", "ideal"); math.Abs(r-3.0) > 1e-9 {
		t.Fatalf("WorstRatio = %v, want 3.0", r)
	}
}

// TestCurveShardedLiveBatch pins how a sharded group is priced: at each
// batch size n, a k-rank group's compute is one rank computing cost(n)/k
// plus the input scatter and output allgather, so small batches cost
// less than full ones.
func TestCurveShardedLiveBatch(t *testing.T) {
	m := perfmodel.Lassen()
	const maxBatch, inLen, outLen, ranks = 8, 192, 10, 2
	cost := func(n int) (float64, float64, int) { return 4e8 * float64(n), 1e6 * float64(n), 12 }
	share := func(n int) (float64, float64, int) {
		f, b, k := cost(n)
		return f / ranks, b / ranks, k
	}
	sharded := CurveFromModel(m, maxBatch, inLen, outLen, ranks, cost)
	oneRank := CurveFromModel(m, maxBatch, inLen, outLen, 1, share)
	for n := 1; n <= maxBatch; n++ {
		coll := m.SendRecv(4*float64(n*inLen), true) + m.Allgather(n*outLen, ranks, false)
		want := float64(oneRank.Compute[n-1]) + coll*1e9
		if got := float64(sharded.Compute[n-1]); math.Abs(got-want) > 2 {
			t.Errorf("batch %d: sharded compute %.0f ns, want %.0f (cost(n)/%d plus collectives)", n, got, want, ranks)
		}
	}
	if sharded.Compute[0] >= sharded.Compute[maxBatch-1] {
		t.Errorf("batch 1 priced at %d ns, not below batch %d's %d ns", sharded.Compute[0], maxBatch, sharded.Compute[maxBatch-1])
	}
}
