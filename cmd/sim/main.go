// Command sim is the fleet-scheduler lab driver: it races routing
// policies (internal/sched) inside the deterministic serving simulator
// (internal/sim) over a swept (fleet x load x tail) grid — optionally
// with a failover scenario armed — and emits the scorecard as a table
// and as byte-stable JSON.
//
// Usage:
//
//	sim [-quick] [-seed N] [-dur SECONDS] [-policies a,b,...]
//	    [-fleets 4x1,16x1,...] [-loads 0.5,0.8,...] [-tails uniform,heavy,...]
//	    [-model smallcnn|synthetic] [-frontends N] [-admit-ns N]
//	    [-faults] [-json FILE] [-out FILE] [-check-factor F]
//
// -policies defaults to every registered policy: least-loaded (the
// shipped sched.Production), random, jsq2, jsq3, and ideal, the
// omniscient bound that -check-factor measures production against.
//
// -quick runs the CI smoke grid: a small sweep plus the assertion (with
// -check-factor) that the shipped production policy's p99 stays within
// the given factor of the omniscient ideal bound on every cell.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
)

var namedTails = map[string]sim.TailSpec{
	"uniform":   {Name: "uniform"},
	"lognormal": {Name: "lognormal", Sigma: 1.0},
	"heavy":     {Name: "heavy", Sigma: 1.5, ParetoAlpha: 2.0, ParetoMix: 0.2},
	"extreme":   {Name: "extreme", Sigma: 2.0, ParetoAlpha: 1.5, ParetoMix: 0.3},
}

func main() {
	quick := flag.Bool("quick", false, "CI smoke: small grid, fast")
	seed := flag.Int64("seed", 1, "master seed (cells derive theirs deterministically)")
	durSec := flag.Float64("dur", 10, "simulated seconds of arrivals per cell")
	policies := flag.String("policies", "all", "comma-separated sched policy names, or 'all'")
	fleets := flag.String("fleets", "4x1,16x1,4x2", "comma-separated fleets, NxR = N replicas of R ranks")
	loads := flag.String("loads", "0.5,0.8,0.95", "comma-separated load factors (fraction of fleet capacity)")
	tails := flag.String("tails", "uniform,lognormal,heavy", "comma-separated tail specs: uniform, lognormal, heavy, extreme")
	model := flag.String("model", "smallcnn", "latency curves: smallcnn (perfmodel-derived) or synthetic")
	frontEnds := flag.Int("frontends", 1, "parallel admission front-ends per cell")
	admitNS := flag.Int64("admit-ns", 0, "per-request admission service time in ns (0 = instantaneous, stage off)")
	faults := flag.Bool("faults", false, "also run every cell with a replica-kill failover scenario")
	jsonOut := flag.String("json", "", "write scorecard JSON to file")
	out := flag.String("out", "", "write scorecard table to file (default stdout)")
	checkFactor := flag.Float64("check-factor", 0, "fail unless the production policy's p99 is within this factor of ideal on every cell (0 = no check)")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	cfg := sim.SweepConfig{
		Seed:          *seed,
		Duration:      int64(*durSec * 1e9),
		MaxBatch:      8,
		BatchDeadline: 500_000,
		QueueDepth:    2,
		FrontEnds:     *frontEnds,
		AdmitNS:       *admitNS,
		Traffic:       sim.Traffic{Tenants: 8, TenantSkew: 1.1},
	}
	if *policies == "all" {
		cfg.Policies = sched.Names()
	} else {
		cfg.Policies = strings.Split(*policies, ",")
	}
	var err error
	if cfg.Fleets, err = parseFleets(*fleets); err != nil {
		fatal(err)
	}
	if cfg.Loads, err = parseFloats(*loads); err != nil {
		fatal(err)
	}
	if cfg.Tails, err = parseTails(*tails); err != nil {
		fatal(err)
	}
	if *quick {
		cfg.Fleets = [][]int{{1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}}
		cfg.Loads = []float64{0.6, 0.9}
		cfg.Tails = []sim.TailSpec{namedTails["lognormal"], namedTails["heavy"]}
		cfg.Duration = 2_000_000_000
		*faults = true
	}
	if *faults {
		cfg.FaultScenario = func(groups []int) *sim.Faults {
			// Kill the first replica group's leader (world rank 1)
			// after its 50th result; detection 5ms, rejoin 100ms.
			return &sim.Faults{
				Plan:        &comm.FaultPlan{Kill: map[int]int{1: 50}},
				DetectDelay: 5_000_000,
				RejoinAfter: 100_000_000,
			}
		}
	}
	if *model == "smallcnn" {
		cfg.CurveFor = smallCNNCurves
	}

	res, err := sim.RunSweep(cfg)
	if err != nil {
		fatal(err)
	}
	res.WriteTable(w)
	reqs := uint64(0)
	for _, sc := range res.Rows {
		reqs += sc.Offered
	}
	fmt.Fprintf(w, "\n%d cells, %d policies, %d simulated requests\n",
		len(res.Rows)/len(cfg.Policies), len(cfg.Policies), reqs)

	if *jsonOut != "" {
		j, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, j, 0o644); err != nil {
			fatal(err)
		}
	}

	if *checkFactor > 0 {
		ratio := res.WorstRatio(sched.Production, "ideal")
		if ratio == 0 {
			fatal(fmt.Errorf("check-factor: production %q or ideal missing from the sweep", sched.Production))
		}
		fmt.Fprintf(w, "production %s worst p99 vs ideal: %.2fx (bound %.2fx)\n",
			sched.Production, ratio, *checkFactor)
		if ratio > *checkFactor {
			fatal(fmt.Errorf("production policy %q p99 is %.2fx ideal, over the %.2fx bound",
				sched.Production, ratio, *checkFactor))
		}
	}
}

// smallCNNCurves derives per-group latency curves from the calibrated
// analytic model for the same smallcnn the serving benchmarks measure.
func smallCNNCurves(groups []int, maxBatch int) []*sim.Curve {
	arch := models.SmallCNN(8, 3, 10)
	m := bench.CPUMachine()
	inLen, outLen := 3*8*8, 10
	curves := make([]*sim.Curve, len(groups))
	for g, ranks := range groups {
		curves[g] = sim.CurveFromModel(m, maxBatch, inLen, outLen, ranks,
			func(n int) (float64, float64, int) { return bench.ArchForwardCost(arch, n) })
		// Calibration: the measured obs decomposition runs ~1.6x the
		// analytic roofline on the dev box (see the golden test in
		// internal/bench).
		curves[g].Scale(1.6)
	}
	return curves
}

func parseFleets(s string) ([][]int, error) {
	var out [][]int
	for _, part := range strings.Split(s, ",") {
		nr := strings.Split(part, "x")
		if len(nr) != 2 {
			return nil, fmt.Errorf("bad fleet %q (want NxR)", part)
		}
		n, err1 := strconv.Atoi(nr[0])
		r, err2 := strconv.Atoi(nr[1])
		if err1 != nil || err2 != nil || n < 1 || r < 1 {
			return nil, fmt.Errorf("bad fleet %q", part)
		}
		groups := make([]int, n)
		for i := range groups {
			groups[i] = r
		}
		out = append(out, groups)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseTails(s string) ([]sim.TailSpec, error) {
	var out []sim.TailSpec
	for _, part := range strings.Split(s, ",") {
		t, ok := namedTails[part]
		if !ok {
			return nil, fmt.Errorf("unknown tail %q (have uniform, lognormal, heavy, extreme)", part)
		}
		out = append(out, t)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sim:", err)
	os.Exit(1)
}
