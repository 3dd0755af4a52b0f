// Command benchmark is the repo's one benchmark: five named workloads, the
// end-to-end metrics that every workload reports, and a traced run that gives
// per-layer numbers. It measures every layer from outside, through exported
// functions, obs.Snapshot and serve.Server.Stats. See README.md.
//
//	go run -C benchmark . -workload mesh_spatial -seed 1 -seconds 12 -trace 0
//	go run -C benchmark . -workload all -out out/run.json
//	go run -C benchmark . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/kernels"
)

// contractLine is the last line of standard output: the shape the driver of
// BENCHMARK.json reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the -out document: what -compare reads.
type report struct {
	Env       envBlock         `json:"env"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

// envBlock says what the numbers were measured on.
type envBlock struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GemmKernel string `json:"gemm_kernel"`
	Commit     string `json:"commit"`
}

func readEnv() envBlock {
	e := envBlock{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GemmKernel: kernels.GemmKernelName(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit, when the checkout is a git repository (the driver's is not).
	if b, err := os.ReadFile("../.git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile("../.git/" + ref); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		e.Commit = head
	}
	return e
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "the only input knob: data, caller patterns and weight init")
	seconds := flag.Int("seconds", runSeconds, "the driver passes BENCHMARK.json's run_seconds; the protocol is fixed, so no other value is accepted")
	trace := flag.Int("trace", 0, "0: timed rounds, end-to-end metrics; 1: traced run, per-layer metrics")
	traceDir := flag.String("trace-dir", "out", "where the traced run writes trace_<workload>.json")
	out := flag.String("out", "", "also write the full report (spreads, samples, env) to this file")
	compare := flag.Bool("compare", false, "compare two -out reports: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: needs 2 processors (2 ranks run side by side); have nproc %d, GOMAXPROCS %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w := workloadByName(*name); w != nil {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds != runSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be %d (the protocol is fixed) and -trace 0 or 1\n", runSeconds)
		os.Exit(2)
	}

	p := fullProtocol
	rep := report{Env: readEnv(), Seconds: *seconds, Trace: *trace == 1}
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, w := range run {
		var wr workloadReport
		if *trace == 1 {
			wr = runTraced(w, *seed, p, *traceDir)
		} else {
			wr = runTimed(w, *seed, p)
		}
		rep.Workloads = append(rep.Workloads, wr)
		printTable(os.Stderr, wr, *trace == 1)
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		// The result line carries exactly the metrics BENCHMARK.json defines
		// for this kind of run; the -out report has the rest.
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			n, m := d.Name, wr.Metrics[d.Name]
			if len(run) > 1 {
				n = wr.Workload + "." + n
			}
			line.Metrics[n] = contractValue{m.Value, m.Unit}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write report:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// printTable is the human view, on standard error: one row per metric, the
// failed gates by name, and a warning for every end-to-end metric whose
// rounds spread wider than its bound (this run cannot resolve a change of
// that size).
func printTable(w *os.File, wr workloadReport, traced bool) {
	fmt.Fprintf(w, "\n%s  seed %d  attempted %d  failed %d\n", wr.Workload, wr.Seed, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED GATE  %s\n", f)
	}
	if traced {
		for _, d := range perLayer {
			m := wr.Metrics[d.Name]
			fmt.Fprintf(w, "  %-34s %14.6g %-8s\n", d.Name, m.Value, m.Unit)
		}
		return
	}
	var noisy []string
	row := func(name string) {
		m := wr.Metrics[name]
		bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
		if m.BoundAbs > 0 {
			bound += fmt.Sprintf(" + %g", m.BoundAbs)
		}
		fmt.Fprintf(w, "  %-20s %14.6g %-6s spread %5.1f%%  bound %-10s n=%d\n", name, m.Value, m.Unit, 100*m.Spread, bound, m.Samples)
		if m.Spread*math.Abs(m.Value) > m.Bound*math.Abs(m.Value)+m.BoundAbs {
			noisy = append(noisy, fmt.Sprintf("%s (spread %.1f%% > bound %s)", name, 100*m.Spread, bound))
		}
	}
	for _, d := range endToEnd {
		row(d.Name)
	}
	for _, d := range compareGated {
		row(d.Name)
	}
	if len(noisy) > 0 {
		fmt.Fprintf(w, "  WARNING  rounds spread wider than the bound: %s\n", strings.Join(noisy, ", "))
	}
}
