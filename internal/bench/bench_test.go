package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"

	"repro/internal/models"
	"repro/internal/perfmodel"
)

func TestSpatialGridShapes(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 8: {4, 2}, 16: {4, 4}}
	for ways, want := range cases {
		ph, pw := SpatialGrid(ways)
		if ph != want[0] || pw != want[1] {
			t.Errorf("SpatialGrid(%d) = %dx%d, want %dx%d", ways, ph, pw, want[0], want[1])
		}
		if ph*pw != ways {
			t.Errorf("SpatialGrid(%d) does not multiply out", ways)
		}
	}
}

func TestLayerPointValidity(t *testing.T) {
	m := perfmodel.Lassen()
	// 1 sample cannot use 2 sample-parallel groups.
	if _, _, ok := LayerPoint(m, models.Conv1, 1, 2, 1); ok {
		t.Error("N=1 with 2 sample-parallel GPUs should be invalid")
	}
	// 1 sample with 2-way spatial on 2 GPUs is valid.
	if _, _, ok := LayerPoint(m, models.Conv1, 1, 2, 2); !ok {
		t.Error("N=1 with 2-way spatial should be valid")
	}
	// GPUs not divisible by GPUs/sample is invalid.
	if _, _, ok := LayerPoint(m, models.Conv1, 4, 6, 4); ok {
		t.Error("6 GPUs with 4 GPUs/sample should be invalid")
	}
}

func TestFig3Conv11SpatialScalesWell(t *testing.T) {
	// Section VI-A: mesh conv1_1 at N=1 has "very good scaling" with
	// spatial parallelism — large speedup at 16 GPUs (paper: ~14.8x).
	m := perfmodel.Lassen()
	fp1, bp1, ok := LayerPoint(m, models.MeshConv11, 1, 1, 1)
	if !ok {
		t.Fatal("baseline invalid")
	}
	fp16, bp16, ok := LayerPoint(m, models.MeshConv11, 1, 16, 16)
	if !ok {
		t.Fatal("16-way invalid")
	}
	s := (fp1 + bp1) / (fp16 + bp16)
	if s < 8 || s > 16 {
		t.Errorf("conv1_1 N=1 16-GPU speedup = %.1fx, want ~10-15x", s)
	}
}

func TestFig2Res3bLimitedFPScaling(t *testing.T) {
	// Section VI-A: res3b_branch2a forward "does not show significant
	// performance improvements beyond two GPUs, due to fixed kernel
	// overheads".
	m := perfmodel.Lassen()
	fp2, _, _ := LayerPoint(m, models.Res3bBranch2a, 1, 2, 2)
	fp16, _, _ := LayerPoint(m, models.Res3bBranch2a, 1, 16, 16)
	if fp16 < fp2/4 {
		t.Errorf("res3b FP kept scaling: 2-way %.4fms vs 16-way %.4fms", fp2*1e3, fp16*1e3)
	}
}

func TestFig2SampleParallelismCheapestAtLargeN(t *testing.T) {
	// With N=32 and plenty of samples, pure sample parallelism has the
	// least overhead (Section V-A intuition, confirmed in VI-A).
	m := perfmodel.Lassen()
	for _, layer := range []models.LayerSpec{models.Conv1, models.Res3bBranch2a} {
		fpS, bpS, ok := LayerPoint(m, layer, 32, 16, 1)
		if !ok {
			t.Fatal("sample point invalid")
		}
		fpH, bpH, ok := LayerPoint(m, layer, 32, 16, 16)
		if !ok {
			t.Fatal("spatial point invalid")
		}
		if fpS+bpS > (fpH+bpH)*1.05 {
			t.Errorf("%s: sample parallelism (%.3fms) should not lose to 16-way spatial (%.3fms) at N=32 on 16 GPUs",
				layer.Name, (fpS+bpS)*1e3, (fpH+bpH)*1e3)
		}
	}
}

func TestTableIShape(t *testing.T) {
	m := perfmodel.Lassen()
	base, ok := MeshStrongPoint(m, false, 4, 1)
	if !ok {
		t.Fatal("baseline invalid")
	}
	t2, _ := MeshStrongPoint(m, false, 4, 2)
	t4, _ := MeshStrongPoint(m, false, 4, 4)
	t8, _ := MeshStrongPoint(m, false, 4, 8)
	t16, _ := MeshStrongPoint(m, false, 4, 16)
	s2, s4, s8, s16 := base/t2, base/t4, base/t8, base/t16
	// Paper Table I at N=4: 2.0x, 3.3x, 4.4x, 6.1x.
	if s2 < 1.7 || s2 > 2.15 {
		t.Errorf("2-way speedup %.2fx, want ~2x", s2)
	}
	if s4 < 2.7 || s4 > 3.8 {
		t.Errorf("4-way speedup %.2fx, want ~3.3x", s4)
	}
	if s8 < 3.8 || s8 > 5.6 {
		t.Errorf("8-way speedup %.2fx, want ~4.4-5x", s8)
	}
	if s16 < 4.2 || s16 > 7.0 {
		t.Errorf("16-way speedup %.2fx, want ~5-6x", s16)
	}
	if !(s2 < s4 && s4 < s8 && s8 < s16) {
		t.Errorf("speedups not monotone: %.2f %.2f %.2f %.2f", s2, s4, s8, s16)
	}
}

func TestTableIIShape(t *testing.T) {
	m := perfmodel.Lassen()
	// Sample parallelism infeasible for the 2K model.
	if _, ok := MeshStrongPoint(m, true, 2, 1); ok {
		t.Error("2K mesh at 1 GPU/sample should be infeasible")
	}
	base, ok := MeshStrongPoint(m, true, 2, 2)
	if !ok {
		t.Fatal("2-way baseline invalid")
	}
	t4, _ := MeshStrongPoint(m, true, 2, 4)
	t8, _ := MeshStrongPoint(m, true, 2, 8)
	s4, s8 := base/t4, base/t8
	// Paper: ~2.1x and ~2.9x; our model over-scales at 8-way (see
	// EXPERIMENTS.md), so bounds are loose but monotone and sublinear.
	if s4 < 1.7 || s4 > 2.3 {
		t.Errorf("2K 4-way speedup %.2fx, want ~2x", s4)
	}
	if s8 < s4 || s8 > 4.2 {
		t.Errorf("2K 8-way speedup %.2fx, want monotone and sublinear", s8)
	}
}

func TestTableIIIShape(t *testing.T) {
	m := perfmodel.Lassen()
	for _, n := range []int{128, 1024, 8192} {
		base, ok := ResNetPoint(m, n, 1)
		if !ok {
			t.Fatalf("N=%d baseline invalid", n)
		}
		t2, ok2 := ResNetPoint(m, n, 2)
		t4, ok4 := ResNetPoint(m, n, 4)
		if !ok2 || !ok4 {
			t.Fatalf("N=%d hybrid points invalid", n)
		}
		s2, s4 := base/t2, base/t4
		if s2 < 1.25 || s2 > 1.6 {
			t.Errorf("N=%d: 2-way hybrid %.2fx, want ~1.4x", n, s2)
		}
		if s4 < 1.35 || s4 > 2.0 {
			t.Errorf("N=%d: 4-way hybrid %.2fx, want ~1.6-1.8x", n, s4)
		}
	}
}

func TestFig4WeakScalingFlat(t *testing.T) {
	// Figure 4: mini-batch time stays near-constant as GPUs grow with the
	// batch.
	m := perfmodel.Lassen()
	arch := models.Mesh1K()
	for _, s := range []int{1, 2, 4} {
		var first float64
		for g := 4 * s; g <= 2048; g *= 4 {
			tm, ok := meshTime(m, arch, g/s, s)
			if !ok {
				continue
			}
			if first == 0 {
				first = tm
			}
			if tm > first*1.25 {
				t.Errorf("%d GPU/sample at %d GPUs: time %.4f degraded >25%% from %.4f", s, g, tm, first)
			}
		}
	}
}

func TestFig4SixteenWayDegradesSlightly(t *testing.T) {
	// Section VI-B1: weak scaling at 8-16 GPUs/sample shows "a slight trend
	// of increasing mini-batch time at large scale".
	m := perfmodel.Lassen()
	arch := models.Mesh1K()
	small, _ := meshTime(m, arch, 1, 16)   // 16 GPUs
	large, _ := meshTime(m, arch, 128, 16) // 2048 GPUs
	if large <= small {
		t.Errorf("16-way weak scaling should degrade slightly: %.4f -> %.4f", small, large)
	}
	if large > small*1.6 {
		t.Errorf("16-way weak scaling degraded too much: %.4f -> %.4f", small, large)
	}
}

func TestTablesRenderCompletely(t *testing.T) {
	m := perfmodel.Lassen()
	var sb strings.Builder
	TableI(m).Write(&sb)
	TableII(m).Write(&sb)
	TableIII(m).Write(&sb)
	for _, tbl := range Fig2(m) {
		tbl.Write(&sb)
	}
	for _, tbl := range Fig3(m) {
		tbl.Write(&sb)
	}
	for _, tbl := range Fig4(m) {
		tbl.Write(&sb)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "conv1:", "res3b_branch2a:", "conv1_1:", "conv6_1:", "Figure 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	if strings.Count(out, "n/a") == 0 {
		t.Error("expected some n/a cells for infeasible configurations")
	}
}

func TestTableCellLookup(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if tbl.Cell(0, "b") != "2" {
		t.Fatal("Cell lookup broken")
	}
	if tbl.Cell(0, "zzz") != "" {
		t.Fatal("missing column should return empty")
	}
}

func TestMeasureConvRealRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real measurement in -short mode")
	}
	rt := MeasureConvReal(dictGrid(1, 1, 1), 2, 4, 32, 32, 8, geom3x3(), 2)
	if rt.FP <= 0 || rt.BP <= 0 {
		t.Fatalf("non-positive measured times: %+v", rt)
	}
	// Distributed run must produce sane times too.
	rt2 := MeasureConvReal(dictGrid(1, 2, 1), 2, 4, 32, 32, 8, geom3x3(), 2)
	if rt2.FP <= 0 || rt2.BP <= 0 {
		t.Fatalf("non-positive distributed times: %+v", rt2)
	}
}

func TestModelCheckTable(t *testing.T) {
	if testing.Short() {
		t.Skip("model check in -short mode")
	}
	tbl := ModelCheck()
	if len(tbl.Rows) != 5 {
		t.Fatalf("model check has %d rows, want 5", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "1.00x" {
		t.Fatalf("baseline measured speedup = %s, want 1.00x", tbl.Rows[0][2])
	}
}

// small helpers keeping test call sites tidy.
func dictGrid(pn, ph, pw int) dist.Grid { return dist.Grid{PN: pn, PH: ph, PW: pw} }

func geom3x3() dist.ConvGeom { return dist.ConvGeom{K: 3, S: 1, Pad: 1} }

func TestAblationOverlapTable(t *testing.T) {
	m := perfmodel.Lassen()
	tbl := AblationOverlap(m)
	if len(tbl.Rows) != 3 {
		t.Fatalf("ablation table has %d rows", len(tbl.Rows))
	}
	// Every overlap removed must cost time: columns are monotone
	// non-decreasing from "all overlaps" to "none".
	for _, row := range tbl.Rows {
		var vals []float64
		for _, cell := range row[1:] {
			var v float64
			if _, err := fmt.Sscanf(cell, "%f", &v); err != nil {
				t.Fatalf("unparsable cell %q", cell)
			}
			vals = append(vals, v)
		}
		if vals[0] > vals[1]+1e-9 || vals[0] > vals[2]+1e-9 || vals[3] < vals[1]-1e-9 || vals[3] < vals[2]-1e-9 {
			t.Errorf("%s: overlap ablation not monotone: %v", row[0], vals)
		}
	}
}

func TestMemoryTableShowsOOM(t *testing.T) {
	m := perfmodel.Lassen()
	tbl := MemoryTable(m)
	if !strings.Contains(tbl.Rows[1][1], "OOM") {
		t.Errorf("2K model at 1 GPU/sample should be OOM, got %q", tbl.Rows[1][1])
	}
	if strings.Contains(tbl.Rows[1][2], "OOM") {
		t.Errorf("2K model at 2 GPUs/sample should fit, got %q", tbl.Rows[1][2])
	}
	if strings.Contains(tbl.Rows[0][1], "OOM") {
		t.Errorf("1K model at 1 GPU/sample should fit, got %q", tbl.Rows[0][1])
	}
}

// MeshStrongPoint is one strong-scaling measurement of the 1K or 2K mesh model.
func MeshStrongPoint(m perfmodel.Machine, model2K bool, n, s int) (float64, bool) {
	arch := models.Mesh1K()
	if model2K {
		arch = models.Mesh2K()
	}
	return meshTime(m, arch, n, s)
}

// Cell looks up a cell by row index and column name (test convenience).
func (t *Table) Cell(row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			return t.Rows[row][i]
		}
	}
	return ""
}
