package perfmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
)

// Total returns FP+BPx+BPw+BPa — CostD(l) without network-level overlap.
func (c LayerCost) Total() float64 { return c.FP + c.BPx + c.BPw + c.BPa }

func TestSendRecvLinearModel(t *testing.T) {
	m := Lassen()
	if m.SendRecv(0, true) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	small := m.SendRecv(8, true)
	if small < m.IntraAlpha {
		t.Fatal("latency term missing")
	}
	big := m.SendRecv(1e9, true)
	want := m.IntraAlpha + 1e9*m.IntraBeta
	if diff := big - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("alpha-beta model violated: %g vs %g", big, want)
	}
	if m.SendRecv(1e6, false) <= m.SendRecv(1e6, true) {
		t.Fatal("inter-node transfer should cost more than intra-node")
	}
}

func TestAllreduceModelProperties(t *testing.T) {
	m := Lassen()
	// Monotone in message size.
	if m.Allreduce(1<<20, 8, true) <= m.Allreduce(1<<10, 8, true) {
		t.Fatal("allreduce not monotone in words")
	}
	// Zero cases.
	if m.Allreduce(100, 1, false) != 0 || m.Allreduce(0, 8, false) != 0 {
		t.Fatal("degenerate allreduce should cost zero")
	}
	// Bandwidth term dominates for large n: doubling n roughly doubles cost.
	t1 := m.Allreduce(10<<20, 16, true)
	t2 := m.Allreduce(20<<20, 16, true)
	if t2 < 1.8*t1 || t2 > 2.2*t1 {
		t.Fatalf("large-message allreduce not bandwidth-dominated: %g vs %g", t1, t2)
	}
	// Latency term dominates for tiny n: cost grows ~log p, not linearly.
	small16 := m.Allreduce(4, 16, true)
	small256 := m.Allreduce(4, 256, true)
	if small256 > 3*small16 {
		t.Fatalf("small-message allreduce should scale ~log p: %g vs %g", small16, small256)
	}
}

func TestRingVsRecursiveDoublingCrossover(t *testing.T) {
	m := Lassen()
	p := 16
	alpha, beta := m.InterAlpha, m.InterBeta
	ringT := func(bytes float64) float64 {
		return 2*float64(p-1)*alpha + 2*(float64(p-1)/float64(p))*bytes*beta
	}
	rdT := func(bytes float64) float64 { return 4 * (alpha + bytes*beta) }
	// For tiny messages recursive doubling must win; for huge ones, ring.
	if rdT(64) > ringT(64) {
		t.Fatal("expected recursive doubling to win for small messages")
	}
	if ringT(64<<20) > rdT(64<<20) {
		t.Fatal("expected ring to win for large messages")
	}
	// Allreduce picks the best algorithm, so it is never worse than either
	// classic candidate (hierarchical/tree variants may beat both).
	for _, bytes := range []int{16, 1 << 10, 1 << 20, 64 << 20} {
		words := bytes / 4
		got := m.Allreduce(words, p, true)
		mn := ringT(float64(bytes))
		if r := rdT(float64(bytes)); r < mn {
			mn = r
		}
		if got > mn+1e-12 {
			t.Fatalf("Allreduce(%d) = %g, worse than best classic algorithm %g", words, got, mn)
		}
	}
}

// The channel-split forward (and filter-split backward-data) deliver only
// the owned block via reduce-scatter; the model must price that below a
// full-result allreduce of the same activation volume, and the priced
// collective must match the Machine's own ReduceScatter formula.
func TestConvPlacedCostUsesReduceScatter(t *testing.T) {
	m := Lassen()
	// Bandwidth-dominated sizes: reduce-scatter moves (p-1)/p of the buffer
	// once where the ring allreduce moves it twice; at small messages the
	// pairwise latency term wins instead and the comparison is meaningless.
	s := ConvSpec{N: 32, C: 512, H: 16, W: 16, F: 512, Geom: dist.ConvGeom{K: 1, S: 1, Pad: 0}}
	pc := 4
	chPl := dist.Placement{Grid: dist.Grid{PN: 1, PC: pc, PH: 1, PW: 1}, Split: dist.SplitChannel}
	fiPl := dist.Placement{Grid: dist.Grid{PN: 1, PC: pc, PH: 1, PW: 1}, Split: dist.SplitFilter}

	actWords := s.N * s.F * s.H * s.W
	inWords := s.N * s.C * s.H * s.W
	spans := pc > m.GPUsPerNode

	ch := m.ConvPlacedCost(s, chPl, true)
	ls := s
	ls.C = dist.BlockPartition(s.C, pc, 0).Len()
	c, _, _ := m.ConvCompute(ls, dist.Grid{PN: 1, PH: 1, PW: 1})
	if want := c + m.ReduceScatter(actWords, pc, spans); ch.FP != want {
		t.Errorf("channel-split FP %g, want compute + reduce-scatter %g", ch.FP, want)
	}
	if old := c + m.Allreduce(actWords, pc, spans); ch.FP >= old {
		t.Errorf("channel-split FP %g not below the allreduce-based cost %g", ch.FP, old)
	}

	fi := m.ConvPlacedCost(s, fiPl, true)
	lf := s
	lf.F = dist.BlockPartition(s.F, pc, 0).Len()
	_, cx, _ := m.ConvCompute(lf, dist.Grid{PN: 1, PH: 1, PW: 1})
	if want := cx + m.ReduceScatter(inWords, pc, spans); fi.BPx != want {
		t.Errorf("filter-split BPx %g, want compute + reduce-scatter %g", fi.BPx, want)
	}
	if old := cx + m.Allreduce(inWords, pc, spans); fi.BPx >= old {
		t.Errorf("filter-split BPx %g not below the allreduce-based cost %g", fi.BPx, old)
	}
}

func TestConvLayerCostNoHaloFor1x1(t *testing.T) {
	m := Lassen()
	s := ConvSpec{N: 4, C: 512, H: 28, W: 28, F: 128, Geom: dist.ConvGeom{K: 1, S: 1, Pad: 0}}
	lc := m.ConvLayerCost(s, dist.Grid{PN: 1, PH: 2, PW: 2}, true)
	if lc.HaloFwd != 0 {
		t.Fatalf("1x1 convolution has halo cost %g", lc.HaloFwd)
	}
}

func TestConvLayerCostHaloSkipsUnsplitDims(t *testing.T) {
	m := Lassen()
	s := ConvSpec{N: 1, C: 16, H: 256, W: 256, F: 16, Geom: dist.ConvGeom{K: 3, S: 1, Pad: 1}}
	hOnly := m.HaloTime(s, dist.Grid{PN: 1, PH: 2, PW: 1})
	both := m.HaloTime(s, dist.Grid{PN: 1, PH: 2, PW: 2})
	if hOnly <= 0 {
		t.Fatal("split H must require halo communication")
	}
	if both <= hOnly*0.5 {
		t.Fatalf("2-D split halo %g should not be far below 1-D %g", both, hOnly)
	}
	if m.HaloTime(s, dist.Grid{PN: 2, PH: 1, PW: 1}) != 0 {
		t.Fatal("pure sample parallelism needs no halo")
	}
}

func TestOverlapReducesLayerCost(t *testing.T) {
	m := Lassen()
	s := ConvSpec{N: 1, C: 18, H: 2048, W: 2048, F: 128, Geom: dist.ConvGeom{K: 5, S: 2, Pad: 2}}
	g := dist.Grid{PN: 1, PH: 4, PW: 4}
	on := m.ConvLayerCost(s, g, true)
	off := m.ConvLayerCost(s, g, false)
	if on.FP >= off.FP {
		t.Fatalf("overlapped FP %g not cheaper than synchronous %g", on.FP, off.FP)
	}
	if on.Total() >= off.Total() {
		t.Fatal("overlap should reduce total layer cost")
	}
}

func TestSampleParallelismCheapestCommunication(t *testing.T) {
	// Section V-A: "sample parallelism is the cheapest approach: it requires
	// only the allreduce time in BPa".
	m := Lassen()
	s := ConvSpec{N: 4, C: 64, H: 128, W: 128, F: 64, Geom: dist.ConvGeom{K: 3, S: 1, Pad: 1}}
	sample := m.ConvLayerCost(s, dist.Grid{PN: 4, PH: 1, PW: 1}, false)
	spatial := m.ConvLayerCost(s, dist.Grid{PN: 1, PH: 2, PW: 2}, false)
	sampleComm := sample.HaloFwd + sample.HaloBwd
	spatialComm := spatial.HaloFwd + spatial.HaloBwd
	if sampleComm != 0 {
		t.Fatal("sample parallelism should have zero halo communication")
	}
	if spatialComm <= 0 {
		t.Fatal("spatial parallelism should pay halo communication")
	}
}

func TestMesh2KMemoryFeasibility(t *testing.T) {
	// Section VI-B1: the 2K model cannot train at even one sample per GPU;
	// 2 GPUs/sample fits.
	m := Lassen()
	arch := models.Mesh2K()
	if Feasible(m, arch, dist.Grid{PN: 2, PH: 1, PW: 1}, 2) {
		t.Fatal("2K mesh model should not fit with pure sample parallelism")
	}
	if !Feasible(m, arch, dist.Grid{PN: 2, PH: 2, PW: 1}, 2) {
		t.Fatal("2K mesh model should fit at 2 GPUs/sample")
	}
	// 1K model fits at one sample per GPU (the paper trains it sample-parallel).
	if !Feasible(m, models.Mesh1K(), dist.Grid{PN: 4, PH: 1, PW: 1}, 4) {
		t.Fatal("1K mesh model should fit at 1 sample/GPU")
	}
}

func TestMemoryDecreasesWithSpatialWays(t *testing.T) {
	arch := models.Mesh2K()
	prev := MemoryBytes(arch, dist.Grid{PN: 1, PH: 1, PW: 1}, 1)
	for _, g := range []dist.Grid{{PN: 1, PH: 2, PW: 1}, {PN: 1, PH: 2, PW: 2}, {PN: 1, PH: 4, PW: 2}} {
		cur := MemoryBytes(arch, g, 1)
		if cur >= prev {
			t.Fatalf("memory did not decrease at grid %v: %g >= %g", g, cur, prev)
		}
		prev = cur
	}
}

func TestMeshStrongScalingShape(t *testing.T) {
	// Table I shape: each doubling of GPUs/sample at fixed N improves
	// mini-batch time, with near-2x at 2-way and diminishing factors after.
	m := Lassen()
	arch := models.Mesh1K()
	n := 4
	times := []float64{}
	for _, ways := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}} {
		g := dist.Grid{PN: n, PH: ways[0], PW: ways[1]}
		nc, err := CNNCost(m, arch, g, n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, nc.MiniBatchTime)
	}
	s2 := times[0] / times[1]
	if s2 < 1.6 || s2 > 2.1 {
		t.Errorf("2 GPUs/sample speedup = %.2fx, want ~2x", s2)
	}
	s4 := times[0] / times[2]
	if s4 < 2.5 || s4 > 4.0 {
		t.Errorf("4 GPUs/sample speedup = %.2fx, want ~3.3x", s4)
	}
	s8 := times[0] / times[3]
	if s8 < s4 {
		t.Errorf("8-way speedup %.2fx fell below 4-way %.2fx", s8, s4)
	}
	if s8 > 7 {
		t.Errorf("8-way speedup %.2fx implausibly near-linear", s8)
	}
}

func TestResNetHybridSpeedupShape(t *testing.T) {
	// Table III shape: hybrid 2-way ~1.3-1.5x, 4-way ~1.4-1.9x over sample
	// parallelism at 32 samples/GPU.
	m := Lassen()
	arch := models.ResNet50(224, 1000)
	n := 128
	base, err := CNNCost(m, arch, dist.Grid{PN: 4, PH: 1, PW: 1}, n, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := CNNCost(m, arch, dist.Grid{PN: 4, PH: 2, PW: 1}, n, DefaultOptions())
	h4, _ := CNNCost(m, arch, dist.Grid{PN: 4, PH: 2, PW: 2}, n, DefaultOptions())
	s2 := base.MiniBatchTime / h2.MiniBatchTime
	s4 := base.MiniBatchTime / h4.MiniBatchTime
	if s2 < 1.2 || s2 > 1.7 {
		t.Errorf("ResNet 2-way hybrid speedup = %.2fx, want ~1.4x", s2)
	}
	if s4 < 1.3 || s4 > 2.1 {
		t.Errorf("ResNet 4-way hybrid speedup = %.2fx, want ~1.6-1.8x", s4)
	}
	if s4 < s2 {
		t.Errorf("4-way (%.2fx) should beat 2-way (%.2fx)", s4, s2)
	}
	// Near-linear speedup is NOT expected for ResNet (Section VI-B2).
	if s4 > 3 {
		t.Errorf("4-way speedup %.2fx too close to linear for ResNet", s4)
	}
}

func TestWeakScalingApproximatelyFlat(t *testing.T) {
	// Figure 4: growing the batch with the GPU count keeps mini-batch time
	// nearly constant.
	m := Lassen()
	arch := models.Mesh1K()
	var times []float64
	for _, pn := range []int{4, 16, 64, 256} {
		g := dist.Grid{PN: pn, PH: 2, PW: 1}
		nc, err := CNNCost(m, arch, g, pn, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, nc.MiniBatchTime)
	}
	for i := 1; i < len(times); i++ {
		if times[i] > times[0]*1.3 {
			t.Errorf("weak scaling degraded %.1f%% at step %d", 100*(times[i]/times[0]-1), i)
		}
		if times[i] < times[0]*0.8 {
			t.Errorf("weak scaling implausibly improved at step %d", i)
		}
	}
}

func TestCNNCostRejectsUndersizedBatch(t *testing.T) {
	m := Lassen()
	if _, err := CNNCost(m, models.Mesh1K(), dist.Grid{PN: 8, PH: 1, PW: 1}, 4, DefaultOptions()); err == nil {
		t.Fatal("batch smaller than PN must error")
	}
}

func TestLinkKinds(t *testing.T) {
	m := Lassen()
	// 2x2 spatial group fits on a 4-GPU node: all intra.
	w, h := m.linkKinds(dist.Grid{PN: 1, PH: 2, PW: 2})
	if !w || !h {
		t.Fatal("2x2 group should be all intra-node")
	}
	// 4x2: W pairs intra, H crosses nodes.
	w, h = m.linkKinds(dist.Grid{PN: 1, PH: 4, PW: 2})
	if !w || h {
		t.Fatalf("4x2 group: wIntra=%v hIntra=%v, want true/false", w, h)
	}
	// 4x4: W rows fill a node, H inter.
	w, h = m.linkKinds(dist.Grid{PN: 1, PH: 4, PW: 4})
	if !w || h {
		t.Fatalf("4x4 group: wIntra=%v hIntra=%v, want true/false", w, h)
	}
}

// Property: layer cost is monotone non-increasing in spatial ways for
// compute-dominated large layers.
func TestQuickLayerCostScalesDown(t *testing.T) {
	m := Lassen()
	f := func(seedRaw int64) bool {
		seed := seedRaw % 4
		if seed < 0 {
			seed = -seed
		}
		s := ConvSpec{N: 1, C: 32 + int(seed)*16, H: 1024, W: 1024, F: 64,
			Geom: dist.ConvGeom{K: 3, S: 1, Pad: 1}}
		t1 := m.ConvLayerCost(s, dist.Grid{PN: 1, PH: 1, PW: 1}, true).Total()
		t2 := m.ConvLayerCost(s, dist.Grid{PN: 1, PH: 2, PW: 1}, true).Total()
		t4 := m.ConvLayerCost(s, dist.Grid{PN: 1, PH: 2, PW: 2}, true).Total()
		return t1 > t2 && t2 > t4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPlacedLayerCostChannelGridCollectives: on a channel grid, batchnorm
// and global average pooling work on this rank's channel block, and
// batchnorm's parameter allreduce carries 2·C/PC words over the p/PC ranks
// that hold the same block.
func TestPlacedLayerCostChannelGridCollectives(t *testing.T) {
	m := Lassen()
	opt := DefaultOptions()
	in := nn.Shape{C: 64, H: 8, W: 8}
	n := 4
	half := ConvSpec{N: n, C: in.C / 2, H: in.H, W: in.W}
	bn := nn.Spec{Name: "bn", Kind: nn.KindBatchNorm}
	gap := nn.Spec{Name: "gap", Kind: nn.KindGlobalAvgPool}
	chGrid := dist.Grid{PN: 2, PC: 2, PH: 1, PW: 1}
	sample := dist.P(dist.Grid{PN: 4, PH: 1, PW: 1})
	total := func(lb LayerBreakdown) float64 { return lb.Cost.Total() + lb.Elem }

	b := m.PlacedLayerCost(bn, in, n, dist.P(chGrid), opt)
	if want := m.Allreduce(2*(in.C/2), 2, false); b.Cost.BPa != want {
		t.Errorf("BN on %v: parameter allreduce %g, want %g (C words over 2 ranks)", chGrid, b.Cost.BPa, want)
	}
	if want := m.ElementwiseCost(half, dist.Grid{PN: 2, PH: 1, PW: 1}, 4); b.Elem != want {
		t.Errorf("BN on %v: elementwise %g, want %g (C/2 channels)", chGrid, b.Elem, want)
	}
	if bs := m.PlacedLayerCost(bn, in, n, sample, opt); total(b) >= total(bs) {
		t.Errorf("BN on %v costs %g, not less than %g on %v", chGrid, total(b), total(bs), sample.Grid)
	}

	g := m.PlacedLayerCost(gap, in, n, dist.P(chGrid), opt)
	if want := m.ElementwiseCost(half, dist.Grid{PN: 2, PH: 1, PW: 1}, 2); g.Elem != want || g.Cost.FP != 0 {
		t.Errorf("GAP on %v: elementwise %g, FP %g; want %g and no spatial reduction", chGrid, g.Elem, g.Cost.FP, want)
	}
	if gs := m.PlacedLayerCost(gap, in, n, sample, opt); total(g) > total(gs) {
		t.Errorf("GAP on %v costs %g, more than %g on %v", chGrid, total(g), total(gs), sample.Grid)
	}
	// With a split spatial domain the channel means are reduced over the
	// spatial group, one channel block per rank: n·C/2 words over 2 ranks,
	// cheaper than n·C words over 4 on the spatial grid of the same size.
	chSp := dist.P(dist.Grid{PN: 1, PC: 2, PH: 2, PW: 1})
	sp := dist.P(dist.Grid{PN: 1, PH: 2, PW: 2})
	gcs := m.PlacedLayerCost(gap, in, n, chSp, opt)
	if want := m.Allreduce(n*in.C/2, 2, false); gcs.Cost.FP != want {
		t.Errorf("GAP on %v: spatial reduction %g, want %g (n·C/2 words over 2 ranks)", chSp.Grid, gcs.Cost.FP, want)
	}
	if gsp := m.PlacedLayerCost(gap, in, n, sp, opt); total(gcs) >= total(gsp) {
		t.Errorf("GAP on %v costs %g, not less than %g on %v", chSp.Grid, total(gcs), total(gsp), sp.Grid)
	}
}
