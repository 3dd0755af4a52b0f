package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// worsening is how far new moved from old in the bad direction, in the
// metric's own unit: positive is worse, negative better.
func worsening(old, new float64, better string) float64 {
	if better == "higher" {
		return old - new
	}
	return new - old
}

// verdict judges one metric of one workload between two reports. The metric
// may worsen by the old side's bound: a share of the old value plus an
// absolute term. A difference is only called when both sides' rounds agree
// with each other more closely than that; otherwise the run cannot resolve it.
func verdict(old, new metricSample) string {
	allowed := old.Bound*math.Abs(old.Value) + old.BoundAbs
	w := worsening(old.Value, new.Value, old.Better)
	switch {
	case old.Spread*math.Abs(old.Value) > allowed || new.Spread*math.Abs(new.Value) > allowed:
		return "unresolved"
	case w > allowed:
		return "worse"
	case w < -allowed:
		return "better"
	default:
		return "within"
	}
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change with its base, the bound and the verdict, one workload per block.
// It returns the exit code: 1 on any "worse" or a failed correctness gate
// on the new side, 2 when the reports cannot be read or were not measured the
// same way (both must be -trace 0 runs of the same seconds and seeds).
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if old.Trace || cur.Trace || old.Seconds != cur.Seconds {
		fmt.Fprintf(os.Stderr, "benchmark: cannot compare: old is -seconds %d -trace %v, new is -seconds %d -trace %v; both must be -trace 0 runs of the same length\n",
			old.Seconds, old.Trace, cur.Seconds, cur.Trace)
		return 2
	}
	byName := map[string]workloadReport{}
	for _, wr := range old.Workloads {
		byName[wr.Workload] = wr
	}
	code := 0
	for _, nw := range cur.Workloads {
		ow, ok := byName[nw.Workload]
		if !ok {
			continue
		}
		if ow.Seed != nw.Seed {
			fmt.Fprintf(os.Stderr, "benchmark: cannot compare %s: old ran seed %d, new seed %d\n", nw.Workload, ow.Seed, nw.Seed)
			return 2
		}
		fmt.Fprintf(w, "%s  (old: seed %d, %d/%d failed; new: seed %d, %d/%d failed)\n",
			nw.Workload, ow.Seed, ow.Failed, ow.Attempted, nw.Seed, nw.Failed, nw.Attempted)
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "  more operations fail than before: a gain does not count\n")
			code = 1
		}
		names := make([]string, 0, len(endToEnd)+len(compareGated))
		for _, d := range endToEnd {
			names = append(names, d.Name)
		}
		for _, d := range compareGated {
			names = append(names, d.Name)
		}
		for _, name := range names {
			o, okO := ow.Metrics[name]
			n, okN := nw.Metrics[name]
			if !okO || !okN {
				continue
			}
			v := verdict(o, n)
			if v == "worse" {
				code = 1
			}
			bound := fmt.Sprintf("%.0f%%", 100*o.Bound)
			if o.BoundAbs > 0 {
				bound += fmt.Sprintf(" + %g", o.BoundAbs)
			}
			change := 0.0
			if o.Value != 0 {
				change = 100 * (n.Value - o.Value) / o.Value
			}
			fmt.Fprintf(w, "  %-18s %12.6g -> %12.6g %-6s %+6.1f%% of %.6g (%s is better)  bound %-10s spreads %4.1f%%/%4.1f%%  %s\n",
				name, o.Value, n.Value, o.Unit, change, o.Value, o.Better, bound, 100*o.Spread, 100*n.Spread, v)
		}
	}
	return code
}
