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

// shardMixArch holds one parameter of every kind SGD must tell apart on
// two ranks: c1.w (16*32*9 = 4608 words) is a replicated conv tensor past
// the fusion threshold, so its update is sharded; c1.b and pred's tensors
// are small and fuse; c1_bn's gamma and beta are batch normalization's;
// c2 is channel-split and c3 filter-split, each holding a 4096-word local
// shard that must not be sharded again.
func shardMixArch() *Arch {
	b := NewBuilder("shardmix", Shape{C: 16, H: 4, W: 4})
	c := b.Conv("c1", b.Last(), 32, dist.ConvGeom{K: 3, S: 1, Pad: 1}, true)
	c = b.BatchNorm("c1_bn", c)
	c = b.ReLU("c1_relu", c)
	c = b.Conv("c2", c, 256, dist.ConvGeom{K: 1, S: 1}, false)
	c = b.ReLU("c2_relu", c)
	c = b.Conv("c3", c, 32, dist.ConvGeom{K: 1, S: 1}, false)
	c = b.ReLU("c3_relu", c)
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1}, true)
	return b.MustBuild()
}

// shardMixPlacements puts c2 (channel split), c3 (filter split) and the
// ReLUs between them on a 2-way channel grid and every other layer on the
// 2-way sample grid; on one rank every layer is on the 1-rank grid.
func shardMixPlacements(arch *Arch, p int) []dist.Placement {
	sample := dist.Grid{PN: p, PH: 1, PW: 1}
	pc := dist.Grid{PN: 1, PC: p, PH: 1, PW: 1}
	pls := make([]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		switch {
		case p == 1 || i < 4 || s.Name == "pred":
			pls[i] = dist.P(sample)
		case s.Name == "c2":
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitChannel}
		case s.Name == "c3":
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitFilter}
		default:
			pls[i] = dist.P(pc)
		}
	}
	return pls
}

// trainShardMix runs steps SGD steps of shardMixArch on p ranks and calls
// check on every rank with the net and its optimizer. When replicated is
// set, Step receives the parameters with their shard records cleared: every
// rank updates each tensor whole, the update before sharding.
func trainShardMix(t *testing.T, p, steps int, mode GradMode, replicated bool, check func(c *comm.Comm, net *StrategyNet, opt *SGD)) {
	t.Helper()
	arch := shardMixArch()
	pls := shardMixPlacements(arch, p)
	n := 2
	x := tensor.New(n, 16, 4, 4)
	x.FillRandN(3, 1)
	labels := make([]int32, n*4*4)
	rng := rand.New(rand.NewSource(4))
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}
	comm.NewWorld(p).Run(func(c *comm.Comm) {
		base := core.NewCtx(c, pls[0].Grid)
		net, err := NewStrategyNet(base, arch, n, 5, pls)
		if err != nil {
			t.Error(err)
			return
		}
		net.Grad = mode
		xs := core.Scatter(x, net.InputDist())
		lbl := ScatterLabels(labels, net.OutputDist())
		opt := NewSGD(0.05, 0.9, 1e-4)
		for s := 0; s < steps; s++ {
			_, dl := DistSegLoss(net.OutputCtx(), net.Forward(xs[base.Rank]), lbl[base.Rank])
			net.Backward(dl)
			ps := net.Params()
			if replicated {
				for i := range ps {
					ps[i].shard = nil
				}
			}
			opt.Step(ps)
		}
		check(c, net, opt)
	})
}

// Only the replicated conv tensor past the fusion threshold is sharded, and
// its velocity covers exactly the chunk this rank owns; fused, batch-norm,
// channel/filter-split and 1-rank parameters keep whole velocity. The
// sizes do not depend on the gradient mode.
func TestShardedSGDVelocityIsOwnedChunk(t *testing.T) {
	for _, p := range []int{1, 2} {
		for _, mode := range []GradMode{GradSync, GradOverlap} {
			trainShardMix(t, p, 1, mode, false, func(c *comm.Comm, net *StrategyNet, opt *SGD) {
				for i, prm := range net.Params() {
					v := len(opt.vel[i])
					if p > 1 && prm.Name == "c1.w" {
						lo, hi := c.OwnedChunk(len(prm.W))
						if prm.shard == nil || prm.shard.lo != lo || prm.shard.hi != hi || v != hi-lo {
							t.Errorf("p=%d mode=%d rank %d: %s velocity %d, shard %+v, want the owned chunk [%d,%d)",
								p, mode, c.Rank(), prm.Name, v, prm.shard, lo, hi)
						}
						continue
					}
					if prm.shard != nil || v != len(prm.W) {
						t.Errorf("p=%d mode=%d rank %d: %s velocity %d of %d words, sharded %v; want whole and unsharded",
							p, mode, c.Rank(), prm.Name, v, len(prm.W), prm.shard != nil)
					}
				}
			})
		}
	}
}

// The sharded update, fed by overlapped reduce-scatters, leaves on every
// rank bitwise the parameters that the replicated update leaves after
// synchronous allreduces.
func TestShardedSGDMatchesReplicatedUpdate(t *testing.T) {
	final := func(mode GradMode, replicated bool) [][]Param {
		out := make([][]Param, 2)
		var mu sync.Mutex
		trainShardMix(t, 2, 3, mode, replicated, func(c *comm.Comm, net *StrategyNet, _ *SGD) {
			mu.Lock()
			out[c.Rank()] = net.Params()
			mu.Unlock()
		})
		return out
	}
	want, got := final(GradSync, true), final(GradOverlap, false)
	for r := range want {
		for i, wp := range want[r] {
			gp := got[r][i]
			for j := range wp.W {
				if math.Float32bits(wp.W[j]) != math.Float32bits(gp.W[j]) {
					t.Errorf("rank %d %s[%d]: sharded %v, replicated %v (bitwise)", r, wp.Name, j, gp.W[j], wp.W[j])
					break
				}
			}
		}
	}
}
