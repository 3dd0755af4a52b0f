// Command bench regenerates the paper's evaluation tables and figures
// (Section VI) from the performance model and, for the model-validation
// and stage-calibration experiments, from real in-process distributed
// execution. It is the paper reproduction, not the repo's performance
// instrument: measured numbers come from `go run -C benchmark .`.
//
// Usage:
//
//	bench -exp fig2|fig3|fig4|table1|table2|table3|ablation|memory|modelcheck|obs|all [-out file]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/perfmodel"
)

// experiments is the one list of what -exp accepts, in paper order: the
// flag help, the unknown-experiment error and the dispatch all read it.
var experiments = []struct {
	name string
	run  func(perfmodel.Machine, io.Writer)
}{
	{"fig2", func(m perfmodel.Machine, w io.Writer) { writeAll(bench.Fig2(m), w) }},
	{"fig3", func(m perfmodel.Machine, w io.Writer) { writeAll(bench.Fig3(m), w) }},
	{"fig4", func(m perfmodel.Machine, w io.Writer) { writeAll(bench.Fig4(m), w) }},
	{"table1", func(m perfmodel.Machine, w io.Writer) { bench.TableI(m).Write(w) }},
	{"table2", func(m perfmodel.Machine, w io.Writer) { bench.TableII(m).Write(w) }},
	{"table3", func(m perfmodel.Machine, w io.Writer) { bench.TableIII(m).Write(w) }},
	{"ablation", func(m perfmodel.Machine, w io.Writer) { bench.AblationOverlap(m).Write(w) }},
	{"memory", func(m perfmodel.Machine, w io.Writer) { bench.MemoryTable(m).Write(w) }},
	{"modelcheck", func(_ perfmodel.Machine, w io.Writer) { bench.ModelCheck().Write(w) }},
	{"obs", func(_ perfmodel.Machine, w io.Writer) { bench.ObsCalibration().Write(w) }},
	{"all", bench.RunAll},
}

func writeAll(tables []*bench.Table, w io.Writer) {
	for _, t := range tables {
		t.Write(w)
	}
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	list := strings.Join(names, ", ")
	exp := flag.String("exp", "all", "experiment: "+list)
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	// Resolve the experiment before -out is created, so a mistyped name
	// neither truncates the file nor exits past its Close.
	var run func(perfmodel.Machine, io.Writer)
	for _, e := range experiments {
		if e.name == *exp {
			run = e.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of: %s)\n", *exp, list)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	run(perfmodel.Lassen(), w)
}
