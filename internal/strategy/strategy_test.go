package strategy

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

func TestCandidatesEnumeration(t *testing.T) {
	cs := Candidates(4, 8, nn.Shape{C: 16, H: 64, W: 64})
	if len(cs) == 0 {
		t.Fatal("no candidates generated")
	}
	seen := map[dist.Grid]bool{}
	for _, g := range cs {
		if g.Size() != 4 {
			t.Fatalf("candidate %v does not use 4 processors", g)
		}
		if seen[g] {
			t.Fatalf("duplicate candidate %v", g)
		}
		seen[g] = true
	}
	// Sample parallelism must come first (cheapest heuristic).
	if cs[0] != (dist.Grid{PN: 4, PH: 1, PW: 1}) {
		t.Fatalf("first candidate = %v, want pure sample parallelism", cs[0])
	}
}

func TestCandidatesRespectShapeLimits(t *testing.T) {
	// Batch of 1 forbids sample parallelism; tiny H forbids H splits.
	cs := Candidates(4, 1, nn.Shape{C: 16, H: 2, W: 64})
	for _, g := range cs {
		if g.PN > 1 {
			t.Fatalf("candidate %v uses sample parallelism with batch 1", g)
		}
		if g.PH > 2 {
			t.Fatalf("candidate %v splits H=2 too finely", g)
		}
	}
	if len(cs) == 0 {
		t.Fatal("expected some spatial candidates")
	}
}

func TestShuffleCostZeroForSameGrid(t *testing.T) {
	m := perfmodel.Lassen()
	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	if c := m.ShuffleCost(nn.Shape{C: 8, H: 32, W: 32}, 4, g, g); c != 0 {
		t.Fatalf("same-grid shuffle cost = %g, want 0", c)
	}
	c := m.ShuffleCost(nn.Shape{C: 8, H: 32, W: 32}, 4, g, dist.Grid{PN: 4, PH: 1, PW: 1})
	if c <= 0 {
		t.Fatal("cross-grid shuffle must cost time")
	}
}

// lineArch builds a simple 4-conv line network.
func lineArch() *nn.Arch {
	b := nn.NewBuilder("line", nn.Shape{C: 8, H: 64, W: 64})
	c := b.Conv("c1", b.Last(), 16, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	c = b.Conv("c2", c, 16, dist.ConvGeom{K: 3, S: 2, Pad: 1}, false)
	c = b.Conv("c3", c, 32, dist.ConvGeom{K: 3, S: 2, Pad: 1}, false)
	b.Conv("c4", c, 8, dist.ConvGeom{K: 1, S: 1, Pad: 0}, false)
	return b.MustBuild()
}

// Uniform returns a strategy using grid g (replicated weights) for every
// layer.
func Uniform(arch *nn.Arch, g dist.Grid) Strategy {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(g)
	}
	return Strategy{Placements: pls}
}

// objective is the DP's additive objective for a complete assignment: the
// sum of dpWeight and of the shuffles from each layer's parents, in layer
// order. It is bitwise the sum the DP tests below compared before
// Optimize reported perfmodel.Evaluate instead.
func objective(m perfmodel.Machine, arch *nn.Arch, pls []dist.Placement, n int) float64 {
	shapes, _ := arch.Shapes()
	total := 0.0
	for i, s := range arch.Specs {
		in := inShape(arch, shapes, i)
		total += dpWeight(m, s, in, n, pls[i])
		for _, par := range s.Parents {
			total += m.ShuffleCost(in, n, pls[par].Grid, pls[i].Grid)
		}
	}
	return total
}

func TestOptimizeLineMatchesBruteForce(t *testing.T) {
	m := perfmodel.Lassen()
	arch := lineArch()
	p, n := 4, 4
	st, err := Optimize(m, arch, p, n)
	if err != nil {
		t.Fatal(err)
	}
	shapes, _ := arch.Shapes()

	// Brute force over every assignment of candidates.
	cands := make([][]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		sh := shapes[i]
		if len(s.Parents) > 0 {
			sh = shapes[s.Parents[0]]
		}
		cands[i] = PlacementCandidates(p, n, s, sh)
	}
	best := 1e30
	var rec func(i int, pls []dist.Placement, acc float64)
	rec = func(i int, pls []dist.Placement, acc float64) {
		if acc >= best {
			return
		}
		if i == len(arch.Specs) {
			if acc < best {
				best = acc
			}
			return
		}
		inSh := shapes[i]
		if len(arch.Specs[i].Parents) > 0 {
			inSh = shapes[arch.Specs[i].Parents[0]]
		}
		for _, pl := range cands[i] {
			c := dpWeight(m, arch.Specs[i], inSh, n, pl)
			if i > 0 {
				c += m.ShuffleCost(inSh, n, pls[i-1].Grid, pl.Grid)
			}
			pls[i] = pl
			rec(i+1, pls, acc+c)
		}
	}
	rec(0, make([]dist.Placement, len(arch.Specs)), 0)

	if diff := objective(m, arch, st.Placements, n) - best; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("DP cost %g != brute force optimum %g", objective(m, arch, st.Placements, n), best)
	}
}

func TestOptimizeStrategyNoWorseThanUniform(t *testing.T) {
	m := perfmodel.Lassen()
	arch := lineArch()
	p, n := 4, 4
	st, err := Optimize(m, arch, p, n)
	if err != nil {
		t.Fatal(err)
	}
	shapes, _ := arch.Shapes()
	opt := objective(m, arch, st.Placements, n)
	for _, g := range Candidates(p, n, shapes[0]) {
		u := Uniform(arch, g)
		cost := objective(m, arch, u.Placements, n)
		if opt > cost+1e-12 {
			t.Fatalf("optimized cost %g worse than uniform %v at %g", opt, g, cost)
		}
	}
}

func TestOptimizeBranchyResNet(t *testing.T) {
	m := perfmodel.Lassen()
	arch := models.ResNet50Tiny(64, 10)
	st, err := Optimize(m, arch, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Placements) != len(arch.Specs) {
		t.Fatalf("strategy covers %d layers, want %d", len(st.Placements), len(arch.Specs))
	}
	for i, pl := range st.Placements {
		if pl.Grid.Size() != 4 {
			t.Fatalf("layer %d assigned placement %v with %d processors", i, pl, pl.Grid.Size())
		}
	}
	if st.Cost <= 0 || st.Cost > 10 {
		t.Fatalf("implausible strategy cost %g", st.Cost)
	}
}

func TestOptimizePrefersSpatialForBigLayersSampleForSmall(t *testing.T) {
	// With batch 2 on 4 processors, sample parallelism alone cannot use all
	// processors, so big early layers should go spatial/hybrid; the
	// optimizer must still produce a consistent strategy.
	m := perfmodel.Lassen()
	b := nn.NewBuilder("mix", nn.Shape{C: 18, H: 1024, W: 1024})
	c := b.Conv("big", b.Last(), 32, dist.ConvGeom{K: 5, S: 2, Pad: 2}, false)
	c = b.Conv("mid", c, 64, dist.ConvGeom{K: 3, S: 2, Pad: 1}, false)
	b.Conv("small", c, 8, dist.ConvGeom{K: 1, S: 1, Pad: 0}, false)
	arch := b.MustBuild()
	st, err := Optimize(m, arch, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every layer must split beyond samples (batch 2 < 4 processors):
	// spatially or along the channel axis.
	for i, pl := range st.Placements[1:] {
		if pl.Grid.SpatialWays() < 2 && pl.Grid.ChannelWays() < 2 {
			t.Fatalf("layer %d placement %v under-uses processors", i+1, pl)
		}
	}
}

func TestBestUniformMesh2KRequiresSpatial(t *testing.T) {
	m := perfmodel.Lassen()
	g, nc, err := BestUniform(m, models.Mesh2K(), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.SpatialWays() < 2 {
		t.Fatalf("best uniform grid %v does not use spatial parallelism; 2K model cannot fit otherwise", g)
	}
	if nc.MiniBatchTime <= 0 {
		t.Fatal("no cost computed")
	}
}

func TestUniformHelper(t *testing.T) {
	arch := lineArch()
	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	u := Uniform(arch, g)
	if len(u.Placements) != len(arch.Specs) {
		t.Fatal("uniform strategy wrong length")
	}
	for _, pl := range u.Placements {
		if pl.Grid != g || pl.Split != dist.SplitNone {
			t.Fatal("uniform strategy not uniform")
		}
	}
}

func TestPlacementCandidatesIncludeChannelSplits(t *testing.T) {
	spec := nn.Spec{Name: "c", Kind: nn.KindConv, F: 64, Geom: dist.ConvGeom{K: 1, S: 1, Pad: 0}, Parents: []int{0}}
	pls := PlacementCandidates(4, 8, spec, nn.Shape{C: 64, H: 4, W: 4})
	var chans, filters int
	for _, pl := range pls {
		if pl.Grid.Size() != 4 {
			t.Fatalf("candidate %v does not use 4 processors", pl)
		}
		if pl.Grid.ChannelWays() > 1 {
			switch pl.Split {
			case dist.SplitChannel:
				chans++
			case dist.SplitFilter:
				filters++
			default:
				t.Fatalf("conv candidate %v splits channels without a weight split", pl)
			}
			if pl.Grid.PH != 1 || pl.Grid.PW != 1 {
				t.Fatalf("channel candidate %v splits spatial dims", pl)
			}
		}
	}
	if chans == 0 || filters == 0 {
		t.Fatalf("no channel/filter candidates generated (%d/%d)", chans, filters)
	}
	// Grid candidates must come first (sample-first heuristic preserved).
	if pls[0].Grid.ChannelWays() != 1 || pls[0].Grid.PN != 4 {
		t.Fatalf("first candidate %v is not pure sample parallelism", pls[0])
	}
	// A tiny channel count forbids channel splits.
	for _, pl := range PlacementCandidates(4, 8, spec, nn.Shape{C: 2, H: 64, W: 64}) {
		if pl.Grid.ChannelWays() > 2 {
			t.Fatalf("candidate %v splits C=2 too finely", pl)
		}
	}
}

// TestOptimizeSelectsChannelSplitForFCHeavy: on an FC-heavy stack (1x1
// convolutions over a tiny spatial domain with wide channels) the weight
// gradient dwarfs the activations, so a channel/filter split — which
// shards the weights and trades the big gradient allreduce for a small
// activation collective — must beat pure sample parallelism under the DP
// objective. This is exactly the strong-scaling regime Section III-D
// targets.
func TestOptimizeSelectsChannelSplitForFCHeavy(t *testing.T) {
	m := perfmodel.Lassen()
	g := dist.ConvGeom{K: 1, S: 1, Pad: 0}
	b := nn.NewBuilder("fcheavy", nn.Shape{C: 512, H: 2, W: 2})
	c := b.Conv("fc1", b.Last(), 512, g, false)
	c = b.Conv("fc2", c, 512, g, false)
	c = b.Conv("fc3", c, 512, g, false)
	b.Conv("fc4", c, 512, g, false)
	arch := b.MustBuild()
	st, err := Optimize(m, arch, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, pl := range st.Placements {
		if pl.Grid.ChannelWays() > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatalf("optimizer chose no channel/filter splits for the FC-heavy stack: %v", st.Placements)
	}
	// And the uniform sample-parallel assignment must really be worse.
	sample := Uniform(arch, dist.Grid{PN: 4, PH: 1, PW: 1})
	if oc, uc := objective(m, arch, st.Placements, 4), objective(m, arch, sample.Placements, 4); oc >= uc {
		t.Fatalf("channel-split strategy cost %g not better than sample-parallel %g", oc, uc)
	}
}

// TestOptimizeEmitsInstantiablePlacements: every placement Optimize
// returns must satisfy the constraints the layer constructors enforce —
// convs on channel-split grids carry a weight split and their channel/
// filter extents cover the split (guards the branchy fallback path, which
// inherits placements from fixed neighbors).
func TestOptimizeEmitsInstantiablePlacements(t *testing.T) {
	m := perfmodel.Lassen()
	for _, tc := range []struct {
		arch *nn.Arch
		p, n int
	}{
		{models.ResNet50Tiny(64, 10), 4, 2},
		{models.ResNet50Tiny(64, 10), 8, 2},
		{models.ResNet50Tiny(32, 4), 4, 1},
		{lineArch(), 4, 2},
	} {
		st, err := Optimize(m, tc.arch, tc.p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		shapes, _ := tc.arch.Shapes()
		for i, pl := range st.Placements {
			spec := tc.arch.Specs[i]
			inSh := shapes[i]
			if len(spec.Parents) > 0 {
				inSh = shapes[spec.Parents[0]]
			}
			pc := pl.Grid.ChannelWays()
			if pc == 1 {
				continue
			}
			if pl.Grid.PH != 1 || pl.Grid.PW != 1 {
				t.Errorf("%s p=%d n=%d layer %d (%s): channel grid %v splits spatial dims", tc.arch.Name, tc.p, tc.n, i, spec.Name, pl)
			}
			if inSh.C < pc {
				t.Errorf("%s p=%d n=%d layer %d (%s): %v splits C=%d too finely", tc.arch.Name, tc.p, tc.n, i, spec.Name, pl, inSh.C)
			}
			if spec.Kind == nn.KindConv {
				if pl.Split == dist.SplitNone {
					t.Errorf("%s p=%d n=%d layer %d (%s): conv on channel grid %v without weight split", tc.arch.Name, tc.p, tc.n, i, spec.Name, pl)
				}
				if spec.F < pc {
					t.Errorf("%s p=%d n=%d layer %d (%s): %v splits F=%d too finely", tc.arch.Name, tc.p, tc.n, i, spec.Name, pl, spec.F)
				}
			}
		}
	}
}

// TestOptimizeCostIsEvaluate: the cost Optimize reports is exactly the
// performance model's modeled mini-batch time for the placements it
// returns — the number BestUniform and the paper tables report.
func TestOptimizeCostIsEvaluate(t *testing.T) {
	m := perfmodel.Lassen()
	for _, c := range goldenCases(testing.Short()) {
		st, err := Optimize(m, c.arch, c.p, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nc, err := perfmodel.Evaluate(m, c.arch, st.Placements, c.n, perfmodel.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.Cost != nc.MiniBatchTime {
			t.Errorf("%s: Optimize cost %g, Evaluate %g", c.name, st.Cost, nc.MiniBatchTime)
		}
	}
}

// BenchmarkOptimize times the whole per-layer search on ResNet-50 at the
// sizes ROADMAP's model table quotes.
func BenchmarkOptimize(b *testing.B) {
	m := perfmodel.Lassen()
	arch := models.ResNet50(224, 1000)
	for _, c := range []struct{ p, n int }{{16, 32}, {64, 64}} {
		b.Run(fmt.Sprintf("resnet50-p%d-n%d", c.p, c.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(m, arch, c.p, c.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
