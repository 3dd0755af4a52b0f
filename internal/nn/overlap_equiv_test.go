package nn_test

// External test package: the bitwise sync-vs-overlap equivalence suite uses
// the real model zoo (models imports nn, so these tests cannot live in
// package nn).

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fusionArch is a conv stack whose parameters are all below the fusion
// threshold, so the overlapped path exercises coalescing buckets end to
// end (resnet-tiny exercises the direct in-place buckets).
func fusionArch(size int) *nn.Arch {
	b := nn.NewBuilder("ovseg", nn.Shape{C: 3, H: size, W: size})
	c := b.Conv("c1", b.Last(), 8, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true)
	c = b.BatchNorm("c1_bn", c)
	c = b.ReLU("c1_relu", c)
	c = b.Conv("c2", c, 8, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true)
	c = b.BatchNorm("c2_bn", c)
	c = b.ReLU("c2_relu", c)
	c = b.Conv("c3", c, 12, dist.ConvGeom{K: 3, S: 2, Pad: 1}, true)
	b.Conv("pred", c, 3, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	return b.MustBuild()
}

// fcHeavyArch is four 16->16 1x1 convs with ReLUs on a 2x2 domain and a
// 4-class 1x1 predictor, for channel- and filter-split placements.
func fcHeavyArch() *nn.Arch {
	b := nn.NewBuilder("fcheavy", nn.Shape{C: 16, H: 2, W: 2})
	c := b.Last()
	for i := 0; i < 4; i++ {
		c = b.Conv(fmt.Sprintf("fc%d", i), c, 16, dist.ConvGeom{K: 1, S: 1}, false)
		c = b.ReLU(fmt.Sprintf("r%d", i), c)
	}
	b.Conv("pred", c, 4, dist.ConvGeom{K: 1, S: 1}, true)
	return b.MustBuild()
}

// fcHeavyPlacements: input and pred sample-parallel on 2 ranks (pred is a
// replicated-weight conv, so its gradient is deferred), fc0-fc1
// channel-parallel and fc2-fc3 filter-parallel (reduced synchronously),
// the ReLUs channel-split between them.
func fcHeavyPlacements(arch *nn.Arch) []dist.Placement {
	sample := dist.P(dist.Grid{PN: 2, PH: 1, PW: 1})
	pc := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	pls := make([]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		switch {
		case i == 0 || s.Name == "pred":
			pls[i] = sample
		case s.Kind != nn.KindConv:
			pls[i] = dist.P(pc)
		case i <= 3: // fc0 and fc1 sit at specs 1 and 3
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitChannel}
		default:
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitFilter}
		}
	}
	return pls
}

// shardEdgeArch has two tensors whose update is sharded at the edges of
// the partition: c1.w has 51*9*3*3 = 4131 words, which 4 ranks do not
// divide, and c3.w exactly 64*64 = 4096, the fusion threshold, which 3
// ranks do not divide. c2.w (51*64 words) and the biases stay below the
// threshold and fuse.
func shardEdgeArch(size int) *nn.Arch {
	b := nn.NewBuilder("shardedge", nn.Shape{C: 9, H: size, W: size})
	c := b.Conv("c1", b.Last(), 51, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true)
	c = b.ReLU("c1_relu", c)
	c = b.Conv("c2", c, 64, dist.ConvGeom{K: 1, S: 1}, true)
	c = b.ReLU("c2_relu", c)
	c = b.Conv("c3", c, 64, dist.ConvGeom{K: 1, S: 1}, false)
	c = b.ReLU("c3_relu", c)
	b.Conv("pred", c, 3, dist.ConvGeom{K: 1, S: 1}, true)
	return b.MustBuild()
}

// uniform places every layer of arch on grid g: the NewDistNet layout.
func uniform(arch *nn.Arch, g dist.Grid) []dist.Placement {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(g)
	}
	return pls
}

// switched places layers [0, k) on grid a and the rest on grid b.
func switched(arch *nn.Arch, a, b dist.Grid, k int) []dist.Placement {
	pls := uniform(arch, b)
	for i := 0; i < k; i++ {
		pls[i] = dist.P(a)
	}
	return pls
}

// trainFinalParams runs `steps` SGD steps of arch under placements pls and
// returns every rank's final parameters.
func trainFinalParams(t *testing.T, arch *nn.Arch, pls []dist.Placement, n, steps int, seg bool, mode nn.GradMode) [][]nn.Param {
	t.Helper()
	p := pls[0].Grid.Size()
	in := arch.In
	x := tensor.New(n, in.C, in.H, in.W)
	x.FillRandN(5, 1)
	outShape, _ := arch.Output()
	rng := rand.New(rand.NewSource(6))
	var segLabels []int32
	var clsLabels []int
	if seg {
		segLabels = make([]int32, n*outShape.H*outShape.W)
		for i := range segLabels {
			segLabels[i] = int32(rng.Intn(outShape.C))
		}
	} else {
		clsLabels = make([]int, n)
		for i := range clsLabels {
			clsLabels[i] = rng.Intn(outShape.C)
		}
	}
	params := make([][]nn.Param, p)
	var mu sync.Mutex
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		base := core.NewCtx(c, pls[0].Grid)
		net, err := nn.NewStrategyNet(base, arch, n, 99, pls)
		if err != nil {
			t.Error(err)
			return
		}
		net.Grad = mode
		xs := core.Scatter(x, net.InputDist())
		opt := nn.NewSGD(0.05, 0.9, 1e-4)
		for it := 0; it < steps; it++ {
			logits := net.Forward(xs[base.Rank])
			var dl core.DistTensor
			if seg {
				shards := nn.ScatterLabels(segLabels, net.OutputDist())
				_, dl = nn.DistSegLoss(net.OutputCtx(), logits, shards[base.Rank])
			} else {
				shards := nn.ScatterSampleLabels(clsLabels, net.OutputDist())
				_, dl = nn.DistClsLoss(net.OutputCtx(), logits, shards[base.Rank])
			}
			net.Backward(dl)
			opt.Step(net.Params())
		}
		ps := net.Params()
		mu.Lock()
		params[base.Rank] = ps
		mu.Unlock()
	})
	return params
}

// The tentpole determinism guarantee: overlapped and synchronous training
// produce bitwise-identical parameters — on 1/2/4-rank sample-parallel
// grids of resnet-tiny, on spatial/hybrid grids with halo exchanges, on
// per-layer placements whose backward shuffles and channel/filter-split
// reductions run while gradient buckets are in flight, and on sharded
// updates whose chunks are uneven or exactly at the fusion threshold —
// after several full SGD steps. Every replicated parameter is also bitwise
// the same on every rank: SGD.Step's allgather leaves them coherent.
func TestOverlapBitwiseMatchesSync(t *testing.T) {
	spatial, sample := dist.Grid{PN: 1, PH: 2, PW: 2}, dist.Grid{PN: 4, PH: 1, PW: 1}
	resnet, fusion, fc, edge := models.ResNet50Tiny(16, 10), fusionArch(8), fcHeavyArch(), shardEdgeArch(4)
	cases := []struct {
		name string
		arch *nn.Arch
		pls  []dist.Placement
		n    int
		seg  bool
	}{
		{"resnet {1,1,1}", resnet, uniform(resnet, dist.Grid{PN: 1, PH: 1, PW: 1}), 4, false},
		{"resnet {2,1,1}", resnet, uniform(resnet, dist.Grid{PN: 2, PH: 1, PW: 1}), 4, false},
		{"resnet {4,1,1}", resnet, uniform(resnet, sample), 4, false},
		{"fusion {1,2,2}", fusion, uniform(fusion, spatial), 2, true},
		{"fusion {2,2,1}", fusion, uniform(fusion, dist.Grid{PN: 2, PH: 2, PW: 1}), 4, true},
		// Input through c1_relu spatial, c2 onward sample-parallel: the
		// backward Redistribute at c2 runs with pred/c3/c2 buckets in flight.
		{"fusion spatial->sample", fusion, switched(fusion, spatial, sample, 4), 4, true},
		{"fcheavy placed", fc, fcHeavyPlacements(fc), 4, true},
		{"shard edges {1,2,2}", edge, uniform(edge, spatial), 2, true},
		{"shard edges {3,1,1}", edge, uniform(edge, dist.Grid{PN: 3, PH: 1, PW: 1}), 3, true},
	}
	for i, tc := range cases {
		if raceDetectorOn && (i == 0 || i == 2) {
			continue // trim the slowest resnet cases; see overlap_equiv_race_on_test.go
		}
		syncP := trainFinalParams(t, tc.arch, tc.pls, tc.n, 3, tc.seg, nn.GradSync)
		overP := trainFinalParams(t, tc.arch, tc.pls, tc.n, 3, tc.seg, nn.GradOverlap)
		checkReplicasCoherent(t, tc.name, tc.arch, tc.pls, overP)
		for r := range syncP {
			if len(syncP[r]) != len(overP[r]) {
				t.Fatalf("%s rank %d: param count %d vs %d", tc.name, r, len(syncP[r]), len(overP[r]))
			}
			for i, sp := range syncP[r] {
				op := overP[r][i]
				for j := range sp.W {
					if math.Float32bits(sp.W[j]) != math.Float32bits(op.W[j]) {
						t.Errorf("%s rank %d: %s[%d] sync %v != overlap %v (bitwise)",
							tc.name, r, sp.Name, j, sp.W[j], op.W[j])
						break
					}
				}
			}
		}
	}
}

// checkReplicasCoherent requires every rank's copy of each replicated
// parameter to be bitwise rank 0's. Layers on a channel-split grid hold a
// different shard per rank and are skipped.
func checkReplicasCoherent(t *testing.T, name string, arch *nn.Arch, pls []dist.Placement, params [][]nn.Param) {
	t.Helper()
	split := map[string]bool{}
	for i, s := range arch.Specs {
		split[s.Name] = pls[i].Grid.ChannelWays() > 1
	}
	for r := 1; r < len(params); r++ {
		for i, p := range params[r] {
			if split[p.Name[:strings.LastIndexByte(p.Name, '.')]] {
				continue
			}
			p0 := params[0][i]
			for j := range p.W {
				if math.Float32bits(p.W[j]) != math.Float32bits(p0.W[j]) {
					t.Errorf("%s: rank %d %s[%d] = %v, rank 0 holds %v (bitwise)", name, r, p.Name, j, p.W[j], p0.W[j])
					break
				}
			}
		}
	}
}

// Deadlock regression: deferred proxy allreduces in flight while backward
// halo exchanges, batchnorm stats reductions, and pooling reverse
// exchanges run blocking on the compute goroutines of a spatial grid.
func TestOverlapWithHaloExchangesNoDeadlock(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		arch := fusionArch(8)
		trainFinalParams(t, arch, uniform(arch, dist.Grid{PN: 1, PH: 2, PW: 2}), 2, 5, true, nn.GradOverlap)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("deadlock: overlapped training on a spatial grid did not complete")
	}
}

func TestGradSkipLeavesGradientsUnreduced(t *testing.T) {
	// The comm-free ceiling mode must run (benchmarks rely on it) and must
	// NOT equal the synchronous result on a multi-rank grid — if it did,
	// the mode would silently be reducing after all.
	arch := fusionArch(8)
	pls := uniform(arch, dist.Grid{PN: 2, PH: 1, PW: 1})
	syncP := trainFinalParams(t, arch, pls, 4, 1, true, nn.GradSync)
	skipP := trainFinalParams(t, arch, pls, 4, 1, true, nn.GradSkip)
	same := true
	for i, sp := range syncP[0] {
		for j := range sp.W {
			if math.Float32bits(sp.W[j]) != math.Float32bits(skipP[0][i].W[j]) {
				same = false
			}
		}
	}
	if same {
		t.Error("GradSkip produced identical parameters to GradSync; ceiling mode is reducing gradients")
	}
}
