package nn

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
)

// overlapSegArch is a conv stack whose parameters are all small: every
// weight and bias lands in fusion buckets, exercising the coalescing path
// (overlapBigArch exercises the direct in-place path).
func overlapSegArch(size int) *Arch {
	b := NewBuilder("ovseg", Shape{C: 3, H: size, W: size})
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

func TestGradPlanCoversEveryDeferredTensor(t *testing.T) {
	for _, arch := range []*Arch{overlapSegArch(8), overlapBigArch(8)} {
		w := comm.NewWorld(1)
		w.Run(func(c *comm.Comm) {
			ctx := core.NewCtx(c, dist.Grid{PN: 1, PH: 1, PW: 1})
			net, err := NewDistNet(ctx, arch, 2, 1)
			if err != nil {
				t.Error(err)
				return
			}
			want := make(map[*float32]int)
			// Every conv weight and bias is deferrable on a uniform grid;
			// batchnorm's gamma and beta are not.
			for _, p := range net.Params() {
				if strings.HasSuffix(p.Name, ".w") || strings.HasSuffix(p.Name, ".b") {
					want[&p.G[0]]++
				}
			}
			plan := buildGradPlan(net.ops)
			got := make(map[*float32]int)
			for _, b := range plan.buckets {
				sum := 0
				for _, g := range b.parts {
					got[&g[0]]++
					sum += len(g)
				}
				if sum != b.words {
					t.Errorf("%s: bucket words %d != member sum %d", arch.Name, b.words, sum)
				}
				if b.fused == nil {
					if len(b.parts) != 1 || b.words < fuseTargetWords {
						t.Errorf("%s: direct bucket with %d parts / %d words", arch.Name, len(b.parts), b.words)
					}
				} else if len(b.fused) != b.words {
					t.Errorf("%s: fusion buffer %d != %d words", arch.Name, len(b.fused), b.words)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s: plan covers %d tensors, want %d", arch.Name, len(got), len(want))
			}
			for ptr, n := range got {
				if n != 1 || want[ptr] != 1 {
					t.Errorf("%s: a gradient tensor appears %d times in the plan", arch.Name, n)
				}
			}
		})
	}
}

// overlapBigArch has a weight tensor past the fusion threshold, so the
// plan must give it a direct in-place bucket.
func overlapBigArch(size int) *Arch {
	b := NewBuilder("ovbig", Shape{C: 16, H: size, W: size})
	c := b.ConvBNReLU("c1", b.Last(), 32, dist.ConvGeom{K: 3, S: 1, Pad: 1}) // 32*16*9 = 4608 words
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	return b.MustBuild()
}
