// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI): the layer microbenchmarks of Figures 2-3, the
// weak-scaling curves of Figure 4, the strong-scaling Tables I-III, and a
// model-validation experiment comparing real (in-process) distributed
// execution against the performance model's predictions.
//
// Large-scale numbers come from the performance model with the Lassen-like
// machine profile (see DESIGN.md for the substitution rationale); shapes —
// who wins, by what factor, where returns diminish — are the reproduction
// target, not LLNL wall-clock.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// SpatialGrid maps "s GPUs/sample" to the near-square PH x PW decomposition
// used throughout the evaluation: 2 -> 2x1, 4 -> 2x2, 8 -> 4x2, 16 -> 4x4.
func SpatialGrid(ways int) (ph, pw int) {
	switch ways {
	case 1:
		return 1, 1
	case 2:
		return 2, 1
	case 4:
		return 2, 2
	case 8:
		return 4, 2
	case 16:
		return 4, 4
	default:
		ph = 1
		for ph*ph < ways {
			ph *= 2
		}
		return ph, ways / ph
	}
}

// maxGPUs caps configurations at Lassen's scale (512 nodes x 4 GPUs used in
// the paper's largest runs).
const maxGPUs = 2048

// ways are the GPUs/sample curves of the evaluation.
var ways = []int{1, 2, 4, 8, 16}

// FigureLayer builds one microbenchmark table (a panel of Figure 2 or 3):
// modeled forward and backpropagation time of a single layer across GPU
// counts and parallelization schemes, halo exchanges overlapped, the
// gradient allreduce excluded (Section VI-A).
func FigureLayer(m perfmodel.Machine, layer models.LayerSpec, batches []int, gpuCounts []int) *Table {
	t := &Table{
		Title: fmt.Sprintf("%s: C=%d H=%d W=%d F=%d K=%d P=%d S=%d",
			layer.Name, layer.C, layer.H, layer.W, layer.F, layer.Geom.K, layer.Geom.Pad, layer.Geom.S),
		Header: []string{"N", "#GPUs"},
		Note:   "cells: FP ms / BP ms (BP = backward-data + backward-filter); allreduce excluded",
	}
	for _, s := range ways {
		t.Header = append(t.Header, fmt.Sprintf("%d GPU/sample", s))
	}
	for _, n := range batches {
		for _, g := range gpuCounts {
			row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", g)}
			for _, s := range ways {
				row = append(row, layerCell(m, layer, n, g, s))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// LayerPoint returns the modeled FP and BP times (seconds) of one
// microbenchmark point, or ok=false when the configuration is invalid.
func LayerPoint(m perfmodel.Machine, layer models.LayerSpec, n, gpus, gpusPerSample int) (fp, bp float64, ok bool) {
	if gpus%gpusPerSample != 0 {
		return 0, 0, false
	}
	pn := gpus / gpusPerSample
	if pn < 1 || pn > n {
		return 0, 0, false
	}
	ph, pw := SpatialGrid(gpusPerSample)
	outH, outW := layer.Geom.OutSize(layer.H), layer.Geom.OutSize(layer.W)
	if outH < ph || outW < pw {
		return 0, 0, false
	}
	grid := dist.Grid{PN: pn, PH: ph, PW: pw}
	spec := perfmodel.ConvSpec{N: n, C: layer.C, H: layer.H, W: layer.W, F: layer.F, Geom: layer.Geom}
	lc := m.ConvLayerCost(spec, grid, true)
	return lc.FP, lc.BPx + lc.BPw, true
}

func layerCell(m perfmodel.Machine, layer models.LayerSpec, n, gpus, s int) string {
	fp, bp, ok := LayerPoint(m, layer, n, gpus, s)
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.3f/%.3f", fp*1e3, bp*1e3)
}

// Fig2 regenerates Figure 2: ResNet-50 conv1 and res3b_branch2a for
// N in {1, 4, 32} on 1-16 GPUs.
func Fig2(m perfmodel.Machine) []*Table {
	g := []int{1, 2, 4, 8, 16}
	return []*Table{
		FigureLayer(m, models.Conv1, []int{1, 4, 32}, g),
		FigureLayer(m, models.Res3bBranch2a, []int{1, 4, 32}, g),
	}
}

// Fig3 regenerates Figure 3: mesh-2K conv1_1 and conv6_1 for N in {1,2,4}.
func Fig3(m perfmodel.Machine) []*Table {
	g := []int{1, 2, 4, 8, 16}
	return []*Table{
		FigureLayer(m, models.MeshConv11, []int{1, 2, 4}, g),
		FigureLayer(m, models.MeshConv61, []int{1, 2, 4}, g),
	}
}

// meshTime models one mesh-model configuration: one sample per GPU group
// (the models fit at most one sample per GPU), s GPUs/sample, mini-batch n.
func meshTime(m perfmodel.Machine, arch *nn.Arch, n, s int) (float64, bool) {
	ph, pw := SpatialGrid(s)
	grid := dist.Grid{PN: n, PH: ph, PW: pw}
	if grid.Size() > maxGPUs {
		return 0, false
	}
	if !perfmodel.Feasible(m, arch, grid, n) {
		return 0, false
	}
	nc, err := perfmodel.CNNCost(m, arch, grid, n, perfmodel.DefaultOptions())
	if err != nil {
		return 0, false
	}
	return nc.MiniBatchTime, true
}

// TableI regenerates Table I: 1K mesh strong scaling at fixed mini-batch
// sizes, speedups over pure sample parallelism (1 GPU/sample).
func TableI(m perfmodel.Machine) *Table {
	return meshStrongScaling(m, models.Mesh1K(),
		"Table I: 1K mesh strong scaling (time and speedup vs 1 GPU/sample)",
		[]int{4, 8, 16, 32, 64, 128, 256, 512, 1024}, ways, 1)
}

// TableII regenerates Table II: 2K mesh strong scaling; sample parallelism
// is infeasible (memory), so the baseline is 2 GPUs/sample.
func TableII(m perfmodel.Machine) *Table {
	return meshStrongScaling(m, models.Mesh2K(),
		"Table II: 2K mesh strong scaling (time and speedup vs 2 GPUs/sample)",
		[]int{2, 4, 8, 16, 32, 64, 128, 256, 512}, []int{2, 4, 8, 16}, 2)
}

func meshStrongScaling(m perfmodel.Machine, arch *nn.Arch, title string, batches, scales []int, baseWays int) *Table {
	t := &Table{Title: title, Header: []string{"N"}}
	for _, s := range scales {
		t.Header = append(t.Header, fmt.Sprintf("%d GPU/sample", s))
	}
	for _, n := range batches {
		row := []string{fmt.Sprintf("%d", n)}
		base, baseOK := meshTime(m, arch, n, baseWays)
		for _, s := range scales {
			tm, ok := meshTime(m, arch, n, s)
			switch {
			case !ok:
				row = append(row, "n/a")
			case s == baseWays:
				row = append(row, fmt.Sprintf("%.4fs", tm))
			case baseOK:
				row = append(row, fmt.Sprintf("%.4fs (%.1fx)", tm, base/tm))
			default:
				row = append(row, fmt.Sprintf("%.4fs", tm))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4 regenerates Figure 4: weak scaling of the 1K and 2K mesh models up
// to 2048 GPUs — mini-batch time as GPUs (and thus mini-batch size) grow,
// one curve per GPUs/sample.
func Fig4(m perfmodel.Machine) []*Table {
	out := []*Table{}
	for _, cfg := range []struct {
		arch   *nn.Arch
		title  string
		scales []int
	}{
		{models.Mesh1K(), "Figure 4 (left): 1024x1024 mesh model weak scaling", ways},
		{models.Mesh2K(), "Figure 4 (right): 2048x2048 mesh model weak scaling", []int{2, 4, 8, 16}},
	} {
		t := &Table{Title: cfg.title, Header: []string{"#GPUs"},
			Note: "cells: mini-batch time (s); N grows with #GPUs (weak scaling)"}
		for _, s := range cfg.scales {
			t.Header = append(t.Header, fmt.Sprintf("%d GPU/sample", s))
		}
		for g := 4; g <= maxGPUs; g *= 2 {
			row := []string{fmt.Sprintf("%d", g)}
			for _, s := range cfg.scales {
				if g%s != 0 {
					row = append(row, "n/a")
					continue
				}
				n := g / s
				if n < 1 {
					row = append(row, "n/a")
					continue
				}
				tm, ok := meshTime(m, cfg.arch, n, s)
				if !ok {
					row = append(row, "n/a")
					continue
				}
				row = append(row, fmt.Sprintf("%.4f", tm))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

// ResNetPoint models one Table III configuration: mini-batch n with 32
// samples per GPU group and s GPUs per group.
func ResNetPoint(m perfmodel.Machine, n, s int) (float64, bool) {
	pn := n / 32
	if pn < 1 || n%32 != 0 {
		return 0, false
	}
	ph, pw := SpatialGrid(s)
	grid := dist.Grid{PN: pn, PH: ph, PW: pw}
	if grid.Size() > maxGPUs {
		return 0, false
	}
	arch := models.ResNet50(224, 1000)
	nc, err := perfmodel.CNNCost(m, arch, grid, n, perfmodel.DefaultOptions())
	if err != nil {
		return 0, false
	}
	return nc.MiniBatchTime, true
}

// TableIII regenerates Table III: ResNet-50 strong scaling, 32 samples/GPU
// sample-parallel baseline vs hybrid 2-way and 4-way spatial decomposition.
func TableIII(m perfmodel.Machine) *Table {
	t := &Table{
		Title:  "Table III: ResNet-50 strong scaling (speedup vs sample parallelism)",
		Header: []string{"N", "Sample (32/GPU)", "Hybrid (32/2 GPUs)", "Hybrid (32/4 GPUs)"},
	}
	for n := 128; n <= 32768; n *= 2 {
		base, okB := ResNetPoint(m, n, 1)
		row := []string{fmt.Sprintf("%d", n)}
		if okB {
			row = append(row, fmt.Sprintf("%.4fs", base))
		} else {
			row = append(row, "n/a")
		}
		for _, s := range []int{2, 4} {
			tm, ok := ResNetPoint(m, n, s)
			if !ok {
				row = append(row, "n/a")
			} else if okB {
				row = append(row, fmt.Sprintf("%.4fs (%.1fx)", tm, base/tm))
			} else {
				row = append(row, fmt.Sprintf("%.4fs", tm))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RunAll writes every experiment to w in paper order.
func RunAll(m perfmodel.Machine, w io.Writer) {
	for _, t := range Fig2(m) {
		t.Write(w)
	}
	for _, t := range Fig3(m) {
		t.Write(w)
	}
	for _, t := range Fig4(m) {
		t.Write(w)
	}
	TableI(m).Write(w)
	TableII(m).Write(w)
	TableIII(m).Write(w)
	AblationOverlap(m).Write(w)
	MemoryTable(m).Write(w)
	ModelCheck().Write(w)
}

// AblationOverlap tabulates the modeled impact of the Section IV-A
// communication/computation overlaps on whole-model mini-batch time.
func AblationOverlap(m perfmodel.Machine) *Table {
	t := &Table{
		Title:  "Ablation: halo/allreduce overlap (modeled mini-batch time, s)",
		Header: []string{"configuration", "all overlaps", "no halo overlap", "no allreduce overlap", "none"},
		Note:   "Section IV-A interior/boundary halo overlap and Section V-B greedy allreduce overlap",
	}
	cases := []struct {
		label string
		arch  *nn.Arch
		grid  dist.Grid
		n     int
	}{
		{"mesh1k N=4, 16-way", models.Mesh1K(), dist.Grid{PN: 4, PH: 4, PW: 4}, 4},
		{"mesh2k N=2, 8-way", models.Mesh2K(), dist.Grid{PN: 2, PH: 4, PW: 2}, 2},
		{"resnet50 N=128, 4-way", models.ResNet50(224, 1000), dist.Grid{PN: 4, PH: 2, PW: 2}, 128},
	}
	for _, c := range cases {
		row := []string{c.label}
		for _, opt := range []perfmodel.Options{
			{OverlapHalo: true, OverlapAllreduce: true, CountElementwise: true},
			{OverlapHalo: false, OverlapAllreduce: true, CountElementwise: true},
			{OverlapHalo: true, OverlapAllreduce: false, CountElementwise: true},
			{OverlapHalo: false, OverlapAllreduce: false, CountElementwise: true},
		} {
			nc, err := perfmodel.CNNCost(m, c.arch, c.grid, c.n, opt)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", nc.MiniBatchTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// MemoryTable tabulates modeled per-GPU training memory across GPUs/sample
// for the mesh models — the feasibility argument of Section VI-B1 (the 2K
// model exceeds a 16 GB V100 even at one sample per GPU).
func MemoryTable(m perfmodel.Machine) *Table {
	t := &Table{
		Title:  "Per-GPU training memory (GB) vs GPUs/sample (mini-batch = sample groups)",
		Header: []string{"model", "1", "2", "4", "8", "16"},
		Note:   fmt.Sprintf("GPU capacity %.0f GB; 'OOM' marks infeasible decompositions", m.GPUMemBytes/1e9),
	}
	for _, c := range []struct {
		label string
		arch  *nn.Arch
	}{{"mesh 1K", models.Mesh1K()}, {"mesh 2K", models.Mesh2K()}} {
		row := []string{c.label}
		for _, s := range ways {
			ph, pw := SpatialGrid(s)
			g := dist.Grid{PN: 2, PH: ph, PW: pw}
			mem := perfmodel.MemoryBytes(c.arch, g, 2)
			cell := fmt.Sprintf("%.1f", mem/1e9)
			if mem > m.GPUMemBytes {
				cell += " (OOM)"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
