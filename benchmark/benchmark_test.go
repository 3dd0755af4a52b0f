package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

func TestPercentileMedianSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	// A median ignores one outlier entirely (the cold first build among set-ups).
	if got := median([]float64{120, 121, 190}); got != 121 {
		t.Errorf("median of rounds = %v, want 121", got)
	}
	if got := spread([]float64{100, 110, 90}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || spread([]float64{1}) != 0 {
		t.Error("empty inputs must give 0")
	}
}

func TestSetupSpread(t *testing.T) {
	// Set-up: the median of five, spread without the cold first build.
	setups := []float64{0.89, 0.58, 0.49, 0.52, 0.55}
	if got := median(setups); got != 0.55 {
		t.Errorf("median set-up = %v", got)
	}
	if got := midSpread(setups); math.Abs(got-(0.58-0.52)/0.55) > 1e-12 {
		t.Errorf("midSpread = %v", got)
	}
}

// TestReadmeNamesEveryMetric keeps the README's glossary from drifting away
// from the tables the command emits.
func TestReadmeNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !bytes.Contains(b, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not mention `%s`", d.Name)
		}
	}
	for _, w := range workloadWhy {
		if !bytes.Contains(b, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md does not mention workload `%s`", w.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, spread float64, better string) metricSample {
		return metricSample{Value: v, Spread: spread, Better: better, Bound: 0.08}
	}
	for _, c := range []struct {
		name     string
		old, new metricSample
		want     string
	}{
		{"lower-better got slower", m(100, 0.02, "lower"), m(110, 0.02, "lower"), "worse"},
		{"lower-better got faster", m(100, 0.02, "lower"), m(90, 0.02, "lower"), "better"},
		{"inside the bound", m(100, 0.02, "lower"), m(107, 0.02, "lower"), "within"},
		{"higher-better dropped", m(100, 0.02, "higher"), m(90, 0.02, "higher"), "worse"},
		{"higher-better rose", m(100, 0.02, "higher"), m(110, 0.02, "higher"), "better"},
		{"old side too noisy", m(100, 0.09, "lower"), m(150, 0.02, "lower"), "unresolved"},
		{"new side too noisy", m(100, 0.02, "lower"), m(50, 0.30, "lower"), "unresolved"},
	} {
		if got := verdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	if w := worsening(200, 190, "higher"); w != 10 {
		t.Errorf("worsening = %v, want 10", w)
	}
	// The two metrics that sit at 0: an absolute term, or no slack at all.
	allocs := func(v float64) metricSample {
		return metricSample{Value: v, Better: "lower", Bound: 0.02, BoundAbs: 0.05}
	}
	fails := func(v float64) metricSample { return metricSample{Value: v, Better: "lower"} }
	for _, c := range []struct {
		name     string
		old, new metricSample
		want     string
	}{
		{"allocs at 0 stay at 0", allocs(0), allocs(0.002), "within"},
		{"allocs appear on a path that had none", allocs(0), allocs(1), "worse"},
		{"allocs within 2% + 0.05", allocs(1000), allocs(1020), "within"},
		{"allocs beyond it", allocs(1000), allocs(1021), "worse"},
		{"nothing fails on either side", fails(0), fails(0), "within"},
		{"one operation in a million fails", fails(0), fails(1e-6), "worse"},
	} {
		if got := verdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, op float64, failed int, edit ...func(*report)) string {
		rep := report{Seconds: runSeconds, Workloads: []workloadReport{{Workload: "mesh_spatial", Seed: 1, Attempted: 3, Failed: failed,
			Metrics: map[string]metricSample{
				"step_ms_p50":   {Value: op, Unit: "ms", Better: "lower", Bound: 0.08, Spread: 0.01},
				"samples_per_s": {Value: 1000 / op, Unit: "1/s", Better: "higher", Bound: 0.08, Spread: 0.01},
				"fail_share":    {Value: float64(failed) / 3, Unit: "share", Better: "lower"},
			}}}}
		for _, e := range edit {
			e(&rep)
		}
		b, _ := json.Marshal(rep)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow, broken := write("a.json", 120, 0), write("b.json", 121, 0), write("c.json", 140, 0), write("d.json", 100, 1)
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 || !strings.Contains(out.String(), "within") {
		t.Errorf("same code: exit %d, output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "of 120") {
		t.Errorf("slower code: exit %d, want 1 and every change with its base; output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, broken); code != 1 || !strings.Contains(out.String(), "better") {
		t.Errorf("faster but failing code: exit %d, want 1; output:\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing report: exit %d, want 2", code)
	}
	// Reports measured another way are refused, not compared.
	for name, edit := range map[string]func(*report){
		"traced":        func(r *report) { r.Trace = true },
		"other seconds": func(r *report) { r.Seconds = 3 },
		"other seed":    func(r *report) { r.Workloads[0].Seed = 2 },
	} {
		if code := compareFiles(&out, base, write("e.json", 120, 0, edit)); code != 2 {
			t.Errorf("%s report: exit %d, want 2", name, code)
		}
	}
}

func hashFloats(h interface{ Write([]byte) (int, error) }, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
}

// inputHash is a fingerprint of everything a workload generates from a seed.
func inputHash(t *testing.T, w workload, seed int64) uint64 {
	h := fnv.New64a()
	switch s := w.(type) {
	case trainSpec:
		x, seg, cls := s.gen(seed)
		hashFloats(h, x.Data())
		for _, l := range seg {
			h.Write([]byte{byte(l)})
		}
		for _, l := range cls {
			h.Write([]byte{byte(l)})
		}
	case serveSpec:
		si, err := s.inputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for c := range si.in {
			for j := range si.in[c] {
				hashFloats(h, si.in[c][j])
				hashFloats(h, si.want[c][j])
			}
		}
	}
	return h.Sum64()
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputHash(t, w, 1), inputHash(t, w, 1), inputHash(t, w, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", w.wname())
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.wname())
		}
	}
}

func TestNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed 128 and 16", len(perLayer), len(endToEnd))
	}
	if len(workloadWhy) != len(workloads) {
		t.Fatalf("%d rationales for %d workloads", len(workloadWhy), len(workloads))
	}
	for i, w := range workloadWhy {
		check(w.Name)
		if w.Name != workloads[i].wname() {
			t.Errorf("rationale %d is for %q, workload %d is %q", i, w.Name, i, workloads[i].wname())
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// definition is BENCHMARK.json as the tables in metrics.go imply it.
func definition() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloadWhy {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var es []e2e
	for _, d := range endToEnd {
		es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "-C", "benchmark", "."},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// TestDefinitionMatchesBenchmarkJSON: every name in BENCHMARK.json is one
// the command emits and vice versa, with the same units, directions and
// bounds. go test -update rewrites the file from the tables.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(definition(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(want, &w)
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json differs from metrics.go; run go test -run TestDefinition -update .\nwant:\n%s", want)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// quick is the smoke protocol: one round, two steps or 200 ms windows.
var quick = protocol{
	rounds: 1, setupOnly: 1, window: 200 * time.Millisecond, trainSteps: 2,
	trainWarm: 1, baseWarm: 0, baseSteps: 2, baseWindow: 100 * time.Millisecond,
	tracedSteps: 2, tracedWindow: 200 * time.Millisecond, gradSteps: 2,
	openWindow: 100 * time.Millisecond, binaryFrames: 20, probeIters: 1,
}

// TestSmokeAllWorkloads runs every workload end to end, timed and traced,
// and holds the command to its definition: exactly the defined metrics come
// out, every gate passes, and each traced run leaves a loadable Chrome trace
// with harness spans and recorder events on at least two rank tracks.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads end to end, timed and traced: about 20 s")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t0 := time.Now()
		timed := runTimed(w, 1, quick)
		t1 := time.Now()
		traced := runTraced(w, 1, quick, dir)
		t.Logf("%s: timed run %.1f s, traced run %.1f s", w.wname(), t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
		for _, c := range []struct {
			rep  workloadReport
			defs []metricDef
		}{{timed, endToEnd}, {traced, perLayer}} {
			if !c.rep.Correct || c.rep.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failures=%v", w.wname(), c.rep.Correct, c.rep.Attempted, c.rep.Failures)
			}
			want := len(c.defs)
			if len(c.defs) == len(endToEnd) {
				want += len(compareGated) // the report carries them, the result line does not
			}
			if len(c.rep.Metrics) != want {
				t.Errorf("%s: %d metrics emitted, %d defined", w.wname(), len(c.rep.Metrics), want)
			}
			for _, d := range c.defs {
				m, ok := c.rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s: emitted=%v unit=%q value=%v", w.wname(), d.Name, ok, m.Unit, m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			if timed.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.wname(), d.Name, timed.Metrics[d.Name].Value)
			}
		}
		for _, d := range compareGated {
			if m, ok := timed.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.BoundAbs != d.BoundAbs {
				t.Errorf("%s: report metric %s: emitted=%v %+v", w.wname(), d.Name, ok, m)
			}
		}
		checkTrace(t, filepath.Join(dir, "trace_"+w.wname()+".json"))
	}
}

func checkTrace(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Errorf("%s does not load: %v", path, err)
		return
	}
	tracks := map[int]map[int]bool{1: {}, 2: {}} // pid 1: recorder, pid 2: harness
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && tracks[ev.Pid] != nil {
			tracks[ev.Pid][ev.Tid] = true
		}
	}
	if len(tracks[1]) < 2 || len(tracks[2]) < 2 {
		t.Errorf("%s: recorder events on %d tracks, harness spans on %d; want at least 2 each", path, len(tracks[1]), len(tracks[2]))
	}
}

// TestGatesFire feeds each correctness gate the fault it exists to catch.
func TestGatesFire(t *testing.T) {
	want := []float32{0.25, -1.5, 3}
	if !bitwiseEqual(want, []float32{0.25, -1.5, 3}) {
		t.Error("bitwise gate rejects an identical answer")
	}
	corrupted := []float32{0.25, -1.5, math.Float32frombits(math.Float32bits(3) + 1)} // one ulp off
	if bitwiseEqual(want, corrupted) {
		t.Error("bitwise gate accepts an answer one ulp off")
	}
	if bitwiseEqual([]float32{0}, []float32{float32(math.Copysign(0, -1))}) {
		t.Error("bitwise gate accepts -0 for +0")
	}

	ok := serve.Stats{Offered: 10, Requests: 7, ShedFull: 1, ShedExpired: 1, Canceled: 0, Failed: 1}
	if err := conserved(ok); err != nil {
		t.Errorf("conservation gate rejects a balanced account: %v", err)
	}
	miscounted := ok
	miscounted.Requests++
	if conserved(miscounted) == nil {
		t.Error("conservation gate accepts a miscounted stat")
	}

	good := make([]float64, halvingSteps)
	for i := range good {
		good[i] = 1 / float64(i+1)
	}
	if err := checkLosses(good); err != nil {
		t.Errorf("loss gate rejects a falling loss: %v", err)
	}
	bad := append([]float64(nil), good...)
	bad[7] = math.NaN()
	if checkLosses(bad) == nil {
		t.Error("loss gate accepts a NaN loss")
	}
	bad[7] = math.Inf(1)
	if checkLosses(bad) == nil {
		t.Error("loss gate accepts an infinite loss")
	}
	flat := make([]float64, halvingSteps)
	for i := range flat {
		flat[i] = 1 - 0.01*float64(i)
	}
	if checkLosses(flat) == nil {
		t.Error("loss gate accepts a loss that did not halve")
	}
	if checkLosses(nil) == nil {
		t.Error("loss gate accepts a run with no steps")
	}

	one := []float64{2, 1.5, 1.2}
	if err := checkLossAgreement([]float64{2, 1.5000001, 1.3}, one, 1, 1e-3); err != nil {
		t.Errorf("agreement gate rejects losses equal to rounding: %v", err)
	}
	if checkLossAgreement([]float64{2, 1.51, 1.2}, one, 1, 1e-3) == nil {
		t.Error("agreement gate accepts a 2-rank loss 0.7% off the 1-rank one")
	}
	if checkLossAgreement([]float64{2}, one, 1, 1e-3) == nil {
		t.Error("agreement gate accepts a run that never reached the step")
	}
	if sameLosses([]float64{1, 0.5}, []float64{1, 0.5, 0.25}) != nil {
		t.Error("determinism gate rejects identical losses")
	}
	if sameLosses([]float64{1, 0.5}, []float64{1, math.Nextafter(0.5, 1)}) == nil {
		t.Error("determinism gate accepts a loss one ulp off")
	}

	// A failed gate is counted, named, and makes the report incorrect.
	s := meshSpatial()
	rs := s.gate(trainRun{stepMs: []float64{100}, wallS: 0.1, losses: bad}, nil)
	if rs.failed != 1 || len(rs.fails) != 1 || !strings.Contains(rs.fails[0], "loss gate") {
		t.Errorf("a NaN loss gave failed=%d fails=%v", rs.failed, rs.fails)
	}
}

// TestSelfContained: the benchmark reaches the repo only through the layers
// it measures, never through the old bench code, so a later change to that
// code cannot change this benchmark.
func TestSelfContained(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range strings.Fields("comm core data dist kernels models nn obs perfmodel sched serve sim strategy tensor") {
		allowed["repro/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); !strings.Contains(first, ".") && first != "repro" {
				continue // standard library
			}
			if !allowed[path] {
				t.Errorf("%s imports %s; only the measured layers are allowed", f, path)
			}
		}
	}
}
