package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

func TestStrategyNetMixedGridsMatchesSeq(t *testing.T) {
	// Early layers spatial (large domain), late layers sample-parallel:
	// the optimizer's canonical choice, exercising forward and backward
	// shuffles between distributions.
	arch := tinySegArch(16)
	spatial := dist.Grid{PN: 1, PH: 2, PW: 2}
	sample := dist.Grid{PN: 4, PH: 1, PW: 1}
	grids := make([]dist.Grid, len(arch.Specs))
	for i := range grids {
		if i <= 4 { // input + first conv-bn-relu block, plus one
			grids[i] = spatial
		} else {
			grids[i] = sample
		}
	}
	checkMatchesSeq(t, arch, dist.Placements(grids), 4, true)
}

func TestStrategyNetThreeDistributions(t *testing.T) {
	// Three different grids across the network: spatial 2x2 -> hybrid 2x2x1
	// -> sample, with shuffles at both switches.
	arch := tinySegArch(16)
	g1 := dist.Grid{PN: 1, PH: 2, PW: 2}
	g2 := dist.Grid{PN: 2, PH: 2, PW: 1}
	g3 := dist.Grid{PN: 4, PH: 1, PW: 1}
	grids := make([]dist.Grid, len(arch.Specs))
	for i := range grids {
		switch {
		case i <= 3:
			grids[i] = g1
		case i <= 6:
			grids[i] = g2
		default:
			grids[i] = g3
		}
	}
	checkMatchesSeq(t, arch, dist.Placements(grids), 4, true)
}

func TestStrategyNetRejectsBadGrids(t *testing.T) {
	arch := tinySegArch(8)
	short := make([]dist.Placement, len(arch.Specs)-1) // wrong length
	// One layer on a 4-rank grid of a 2-rank world.
	uncovered := uniform(arch, dist.Grid{PN: 2, PH: 1, PW: 1})
	uncovered[4] = dist.P(dist.Grid{PN: 4, PH: 1, PW: 1})
	w := comm.NewWorld(2)
	w.Run(func(c *comm.Comm) {
		base := core.NewCtx(c, dist.Grid{PN: 2, PH: 1, PW: 1})
		if _, err := NewStrategyNet(base, arch, 4, 1, short); err == nil {
			t.Error("wrong placement count accepted")
		}
		if _, err := NewStrategyNet(base, arch, 4, 1, uncovered); err == nil {
			t.Error("grid that does not cover the communicator accepted")
		}
	})
}

// placedStrategyRun executes s steps of SGD under the given placements and
// returns the per-step losses plus every rank's final params.
func placedStrategyRun(t *testing.T, arch *Arch, pls []dist.Placement, n, steps int) ([]float64, [][]Param) {
	t.Helper()
	p := pls[0].Grid.Size()
	in := arch.In
	x := tensor.New(n, in.C, in.H, in.W)
	x.FillRandN(8, 1)
	outShape, _ := arch.Output()
	labels := make([]int32, n*outShape.H*outShape.W)
	rng := rand.New(rand.NewSource(9))
	for i := range labels {
		labels[i] = int32(rng.Intn(outShape.C))
	}
	losses := make([]float64, steps)
	params := make([][]Param, p)
	var mu sync.Mutex
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		base := core.NewCtx(c, pls[0].Grid)
		net, err := NewStrategyNet(base, arch, n, 77, pls)
		if err != nil {
			t.Error(err)
			return
		}
		xs := core.Scatter(x, net.InputDist())
		lbl := ScatterLabels(labels, net.OutputDist())
		o := NewSGD(0.1, 0.9, 0)
		for s := 0; s < steps; s++ {
			logits := net.Forward(xs[base.Rank])
			loss, dl := DistSegLoss(net.OutputCtx(), logits, lbl[base.Rank])
			net.Backward(dl)
			o.Step(net.Params())
			if base.Rank == 0 {
				mu.Lock()
				losses[s] = loss
				mu.Unlock()
			}
		}
		ps := net.Params()
		cp := make([]Param, len(ps))
		for i, pp := range ps {
			cp[i] = Param{Name: pp.Name, W: append([]float32(nil), pp.W...), G: append([]float32(nil), pp.G...)}
		}
		mu.Lock()
		params[base.Rank] = cp
		mu.Unlock()
	})
	return losses, params
}

// checkPlacedMatchesSeq trains under placements for several steps and
// requires the loss trajectory to track the sequential net: any gradient
// error in the channel/filter-parallel layers compounds across steps and
// diverges the trajectory.
func checkPlacedMatchesSeq(t *testing.T, arch *Arch, pls []dist.Placement, n, steps int) {
	t.Helper()
	seqNet, err := NewSeqNet(arch, 77)
	if err != nil {
		t.Fatal(err)
	}
	in := arch.In
	x := tensor.New(n, in.C, in.H, in.W)
	x.FillRandN(8, 1)
	outShape, _ := arch.Output()
	labels := make([]int32, n*outShape.H*outShape.W)
	rng := rand.New(rand.NewSource(9))
	for i := range labels {
		labels[i] = int32(rng.Intn(outShape.C))
	}
	opt := NewSGD(0.1, 0.9, 0)
	seqLosses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		logits := seqNet.Forward(x)
		loss, d := SegLoss(logits, labels)
		seqNet.Backward(d)
		opt.Step(seqNet.Params())
		seqLosses[s] = loss
	}
	losses, _ := placedStrategyRun(t, arch, pls, n, steps)
	for s := range losses {
		if d := math.Abs(losses[s] - seqLosses[s]); d > 1e-3*(math.Abs(seqLosses[s])+1) {
			t.Errorf("step %d: placed loss %g vs sequential %g", s, losses[s], seqLosses[s])
		}
	}
}

// placementsFor builds a per-layer placement list: layer indices listed in
// chanLayers get the channel-split placement, everything else base.
func placementsFor(arch *Arch, base, chanPl dist.Placement, chanLayers ...int) []dist.Placement {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = base
	}
	for _, i := range chanLayers {
		pls[i] = chanPl
	}
	return pls
}

func TestStrategyNetChannelParallelMatchesSeq(t *testing.T) {
	// tinySegArch layers: 0 input, 1 c1, 2 bn, 3 relu, 4 c2, 5 bn, 6 relu,
	// 7 pred. The middle block (conv + bn + relu) runs channel-split: the
	// conv splits its input channels, bn/relu hold channel shards; shuffles
	// remap at both boundaries.
	arch := tinySegArch(8)
	base := dist.P(dist.Grid{PN: 4, PH: 1, PW: 1})
	chanPl := dist.Placement{Grid: dist.Grid{PN: 2, PC: 2, PH: 1, PW: 1}, Split: dist.SplitChannel}
	checkPlacedMatchesSeq(t, arch, placementsFor(arch, base, chanPl, 4, 5, 6), 4, 3)
}

func TestStrategyNetFilterParallelMatchesSeq(t *testing.T) {
	arch := tinySegArch(8)
	base := dist.P(dist.Grid{PN: 4, PH: 1, PW: 1})
	filterPl := dist.Placement{Grid: dist.Grid{PN: 1, PC: 4, PH: 1, PW: 1}, Split: dist.SplitFilter}
	checkPlacedMatchesSeq(t, arch, placementsFor(arch, base, filterPl, 4, 5, 6), 4, 3)
}

func TestStrategyNetPureChannelGroupMatchesSeq(t *testing.T) {
	// Whole-network 2-rank channel split except input/pred (which keep the
	// batch whole): composes spatial-free channel parallelism end to end.
	arch := tinySegArch(8)
	base := dist.P(dist.Grid{PN: 2, PH: 1, PW: 1})
	chanPl := dist.Placement{Grid: dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, Split: dist.SplitChannel}
	filterPl := dist.Placement{Grid: dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, Split: dist.SplitFilter}
	pls := placementsFor(arch, base, chanPl, 4, 5, 6)
	pls[1], pls[2], pls[3] = filterPl, filterPl, filterPl
	checkPlacedMatchesSeq(t, arch, pls, 4, 3)
}

// TestStrategyNetChannelParallelDeterministic: identical channel-parallel
// runs train to bitwise-identical parameters — the stable reductions pin
// every association order, so the placement introduces no run-to-run
// nondeterminism on top of the sample-parallel baseline.
func TestStrategyNetChannelParallelDeterministic(t *testing.T) {
	arch := tinySegArch(8)
	base := dist.P(dist.Grid{PN: 2, PH: 1, PW: 1})
	for _, split := range []dist.Split{dist.SplitChannel, dist.SplitFilter} {
		pl := dist.Placement{Grid: dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}, Split: split}
		pls := placementsFor(arch, base, pl, 4, 5, 6)
		l1, p1 := placedStrategyRun(t, arch, pls, 4, 2)
		l2, p2 := placedStrategyRun(t, arch, pls, 4, 2)
		for s := range l1 {
			if l1[s] != l2[s] {
				t.Fatalf("split %v: loss[%d] differs across identical runs", split, s)
			}
		}
		for r := range p1 {
			for i := range p1[r] {
				for j := range p1[r][i].W {
					if p1[r][i].W[j] != p2[r][i].W[j] {
						t.Fatalf("split %v rank %d: param %s[%d] differs across identical runs",
							split, r, p1[r][i].Name, j)
					}
				}
			}
		}
	}
}
