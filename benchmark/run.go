package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/kernels"
	"repro/internal/nn"
)

// protocol is the fixed noise protocol of a run. The command runs
// fullProtocol; only tests build a shorter one.
type protocol struct {
	rounds    int
	setupOnly int
	window    time.Duration // measured part of one serving round
	// trainSteps is the measured part of one training round; 0 means the
	// workload's own step count (trainSpec.steps, about 4 s on this box).
	trainSteps int

	trainWarm int // warm-up steps before the measured part
	baseWarm  int // the 1-rank baseline's warm-up steps
	baseSteps int // and its timed steps
	// baseWindow is the serving 1-rank fleet's window.
	baseWindow time.Duration

	// Traced run: one untraced reference round and one traced round of
	// tracedSteps training steps or tracedWindow of serving, gradSteps
	// steps per gradient mode, openWindow of open-loop pacing,
	// binaryFrames sequential frames, probeIters warm iterations per probe.
	tracedSteps  int
	tracedWindow time.Duration
	gradSteps    int
	openWindow   time.Duration
	binaryFrames int
	probeIters   int
}

// runSeconds is BENCHMARK.json's run_seconds, the only value -seconds
// accepts: 3 rounds of 4 s.
const runSeconds = 12

// fullProtocol: 3 rounds per run, each rebuilding the workload from scratch
// and measuring 4 s of serving or the workload's fixed step count. 2 more
// builds are warmed and thrown away, so that set-up time is the median of
// five samples.
var fullProtocol = protocol{
	rounds: 3, setupOnly: 2, window: runSeconds * time.Second / 3,
	trainWarm: 5, baseWarm: 2, baseSteps: 5, baseWindow: time.Second,
	tracedSteps: 20, tracedWindow: 3 * time.Second, gradSteps: 10,
	openWindow: 3 * time.Second, binaryFrames: 2000, probeIters: 5,
}

// roundStats is one round of one workload, reduced to what the end-to-end
// metrics need.
type roundStats struct {
	setupS     float64
	opMs       []float64
	throughput float64 // samples or requests per second, over the round's wall time
	// rate and baseRate feed the speed-up: what the 2-rank layout and the
	// 1-rank baseline sustained this round (training: global batch / median
	// step; serving: requests per second).
	rate, baseRate float64
	allocsPerOp    float64 // process-wide Mallocs over the measured part / ops
	attempted      int
	fails          []string
	failed         int
	losses         []float64 // training only: for the cross-round determinism gate
}

// workload is one named set of inputs: a training task or a serving fleet.
type workload interface {
	wname() string
	// job fixes the seed and does the harness's own once-per-run work (the
	// serving reference answers), which no round is charged for.
	job(seed int64) (job, error)
}

// job is a workload at one seed.
type job interface {
	// timedRound builds the workload and its 1-rank baseline from scratch
	// and measures both, tracing off.
	timedRound(p protocol) roundStats
	// setupSample builds and warms the workload once more and returns how
	// long that took.
	setupSample(p protocol) float64
	// tracedRun produces every per-layer metric (0 where the workload never
	// enters the layer) and writes the Chrome trace under dir.
	tracedRun(p protocol, dir string) (map[string]float64, roundStats)
}

type trainJob struct {
	trainSpec
	seed int64
}

type serveJob struct {
	serveSpec
	seed int64
	si   *serveInputs
}

func (s trainSpec) job(seed int64) (job, error) { return trainJob{s, seed}, nil }

func (s serveSpec) job(seed int64) (job, error) {
	si, err := s.inputs(seed)
	return serveJob{s, seed, si}, err
}

var workloads = []workload{meshSpatial(), resnetSample(), fcHeavyPlaced(), serveRouted(), serveSharded()}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.wname() == name {
			return w
		}
	}
	return nil
}

func (s trainSpec) wname() string { return s.name }
func (s serveSpec) wname() string { return s.name }

// measuredSteps is the fixed amount of work of one training round.
func (p protocol) measuredSteps(s trainSpec) int {
	if p.trainSteps > 0 {
		return p.trainSteps
	}
	return s.steps
}

func (s trainJob) timedRound(p protocol) roundStats {
	// Ranks are the unit of parallelism in training, as in cmd/trainmesh.
	defer kernels.SetMaxWorkers(kernels.SetMaxWorkers(1))
	two := runTrain(s.trainSpec, 2, s.seed, nn.GradOverlap, p.trainWarm, p.measuredSteps(s.trainSpec), nil, nil)
	one := runTrain(s.trainSpec, 1, s.seed, nn.GradOverlap, p.baseWarm, p.baseSteps, nil, nil)
	rs := s.gate(two, &one)
	if two.err == nil && one.err == nil {
		rs.rate, rs.baseRate = float64(s.batch)/median(two.stepMs), float64(s.batch)/median(one.stepMs)
	}
	return rs
}

func (s trainJob) setupSample(p protocol) float64 {
	defer kernels.SetMaxWorkers(kernels.SetMaxWorkers(1))
	return runTrain(s.trainSpec, 2, s.seed, nn.GradOverlap, p.trainWarm, 1, nil, nil).setupS
}

// gate turns a 2-rank training run (and, when given, its 1-rank baseline)
// into round statistics, counting every failed correctness gate. A round is
// one attempt.
func (s trainSpec) gate(two trainRun, one *trainRun) roundStats {
	rs := roundStats{setupS: two.setupS, opMs: two.stepMs, attempted: 1, losses: two.losses}
	fail := func(format string, args ...any) {
		rs.failed = 1
		rs.fails = append(rs.fails, s.name+": "+fmt.Sprintf(format, args...))
	}
	if two.err != nil {
		fail("build: %v", two.err)
		return rs
	}
	rs.throughput = float64(s.batch*len(two.stepMs)) / two.wallS
	rs.allocsPerOp = two.mem.mallocs / float64(len(two.stepMs))
	if err := checkLosses(two.losses); err != nil {
		fail("loss gate: %v", err)
	}
	if one != nil {
		if one.err != nil {
			fail("1-rank build: %v", one.err)
		} else if err := checkLossAgreement(two.losses, one.losses, s.agreeStep, s.agreeTol); err != nil {
			fail("1-rank agreement gate: %v", err)
		}
	}
	return rs
}

func (s serveJob) timedRound(p protocol) roundStats {
	two := runServe(s.serveSpec, s.groups, s.seed, s.si, p.window, nil, nil, nil)
	one := runServe(s.serveSpec, []int{1}, s.seed, s.si, p.baseWindow, nil, nil, nil)
	rs := s.gate(two)
	base := s.gate(one)
	rs.attempted += base.attempted
	rs.failed += base.failed
	rs.fails = append(rs.fails, base.fails...)
	rs.rate, rs.baseRate = rs.throughput, base.throughput
	return rs
}

func (s serveJob) setupSample(p protocol) float64 {
	return runServe(s.serveSpec, s.groups, s.seed, s.si, 0, nil, nil, nil).setupS
}

// gate counts a serving run's attempts and failures: every request, warm-up
// included, is an attempt; a wrong answer, a Predict error or broken
// conservation is a failure.
func (s serveSpec) gate(r serveRun) roundStats {
	rs := roundStats{setupS: r.setupS, opMs: r.latMs, attempted: len(r.latMs) + callers*s.warm, failed: r.failed}
	for _, f := range r.fails {
		rs.fails = append(rs.fails, s.name+": "+f)
	}
	if r.err != nil {
		rs.attempted, rs.failed = 1, 1
		rs.fails = append(rs.fails, s.name+": start: "+r.err.Error())
		return rs
	}
	rs.throughput = float64(len(r.latMs)) / r.wallS
	if len(r.latMs) > 0 {
		rs.allocsPerOp = r.mem.mallocs / float64(len(r.latMs))
	}
	return rs
}

// metricSample is one metric of one run, with the per-round statistics it
// was taken from. A metric may worsen by Bound (a share of the old value)
// plus BoundAbs before -compare calls it worse.
type metricSample struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	BoundAbs float64   `json:"bound_abs,omitempty"`
	Spread   float64   `json:"spread"`
	Samples  int       `json:"samples"`
	Rounds   []float64 `json:"rounds,omitempty"`
}

// workloadReport is everything one run of one workload produced.
type workloadReport struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]metricSample `json:"metrics"`
}

// midSpread is the noise figure of a median: the distance between the
// second-lowest and second-highest sample over the median, which leaves out
// the cold first build of a process and the luckiest one.
func midSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return spread(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[len(s)-2] - s[1]) / median(s)
}

// runTimed is the untraced run: p.rounds rounds, each from scratch, then
// p.setupOnly more builds for set-up time alone. Every value is as measured.
func runTimed(w workload, seed int64, p protocol) workloadReport {
	rep := workloadReport{Workload: w.wname(), Seed: seed, Metrics: map[string]metricSample{}}
	j, err := w.job(seed)
	if err != nil {
		rep.Attempted, rep.Failed, rep.Failures = 1, 1, []string{w.wname() + ": " + err.Error()}
		return rep
	}
	var opMs, thr, p90, setups, allocs, rates, baseRates, first, all []float64
	for r := 0; r < p.rounds; r++ {
		rs := j.timedRound(p)
		rep.Attempted += rs.attempted
		rep.Failed += rs.failed
		rep.Failures = append(rep.Failures, rs.fails...)
		if r == 0 {
			first = rs.losses
		} else if err := sameLosses(first, rs.losses); err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: determinism gate, round %d vs round 0: %v", w.wname(), r, err))
		}
		all = append(all, rs.opMs...)
		opMs, thr = append(opMs, median(rs.opMs)), append(thr, rs.throughput)
		p90 = append(p90, percentile(rs.opMs, 0.90))
		setups, allocs = append(setups, rs.setupS), append(allocs, rs.allocsPerOp)
		rates, baseRates = append(rates, rs.rate), append(baseRates, rs.baseRate)
	}
	for i := 0; i < p.setupOnly; i++ {
		setups = append(setups, j.setupSample(p))
	}
	speedups := make([]float64, len(rates))
	for i := range rates {
		if baseRates[i] > 0 { // 0 only when a build failed, which is already counted
			speedups[i] = rates[i] / baseRates[i]
		}
	}
	// The value of a metric is the median over the rounds of the per-round
	// statistic (itself a median, a percentile or a mean over the round's
	// ops), so one disturbed round in three leaves it alone; the noise
	// figure beside it is (max - min) / median over the same rounds.
	rounds := map[string][]float64{
		"step_ms_p50": opMs, "lat_ms_p50": opMs, "samples_per_s": thr, "req_per_s": thr,
		"speedup_vs_1rank": speedups, "lat_ms_p90": p90, "setup_s": setups, "allocs_per_op": allocs,
	}
	for _, d := range endToEnd {
		xs := rounds[d.Name]
		m := metricSample{Value: median(xs), Unit: d.Unit, Better: d.Better, Bound: d.Bound, Spread: spread(xs), Samples: len(all), Rounds: xs}
		switch d.Name {
		case "speedup_vs_1rank":
			m.Samples = len(xs)
		case "setup_s":
			m.Spread, m.Samples = midSpread(xs), len(xs)
		}
		rep.Metrics[d.Name] = m
	}
	for _, d := range compareGated {
		xs := rounds[d.Name]
		m := metricSample{Value: median(xs), Unit: d.Unit, Better: d.Better, Bound: d.Bound, BoundAbs: d.BoundAbs, Spread: spread(xs), Samples: len(all), Rounds: xs}
		if d.Name == "fail_share" {
			m.Value, m.Samples = float64(rep.Failed)/float64(rep.Attempted), rep.Attempted
		}
		rep.Metrics[d.Name] = m
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// sameLosses is the determinism gate: the same seed must give the same
// losses, bit for bit, on the steps two rounds have in common.
func sameLosses(a, b []float64) error {
	for i := 0; i < len(a) && i < len(b); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("step %d: loss %.9g vs %.9g", i, a[i], b[i])
		}
	}
	return nil
}

// runTraced is the traced run: per-layer metrics only.
func runTraced(w workload, seed int64, p protocol, dir string) workloadReport {
	rep := workloadReport{Workload: w.wname(), Seed: seed, Metrics: map[string]metricSample{}}
	j, err := w.job(seed)
	if err != nil {
		rep.Attempted, rep.Failed, rep.Failures = 1, 1, []string{w.wname() + ": " + err.Error()}
		return rep
	}
	vals, rs := j.tracedRun(p, dir)
	rep.Attempted, rep.Failed, rep.Failures = rs.attempted, rs.failed, rs.fails
	vals["fail_share"] = float64(rs.failed) / float64(rs.attempted)
	for _, d := range perLayer {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // a ratio over nothing measured; JSON has no word for it
			v = 0
		}
		rep.Metrics[d.Name] = metricSample{Value: v, Unit: d.Unit, Better: d.Better, Samples: 1}
	}
	rep.Correct = rep.Failed == 0
	return rep
}
