package strategy

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// goldenPlacements pins the placements Optimize returns (every field of
// every layer's Placement, before normalization), so a change to the
// cost model or the search that moves a single pick fails here.
// Regenerate only for a change meant to alter the optimizer's choices.
var goldenPlacements = map[string]uint64{
	"resnet-tiny p2 n2": 0xa3aee5ede5b9b80f,
	"resnet-tiny p4 n1": 0x87793f4cb52cc2bf,
	"resnet-tiny p4 n2": 0x3e11d33b6854c348,
	"resnet-tiny p4 n8": 0xaab5540c3a579ce1,
	"resnet-tiny p8 n2": 0xdd9c5197da1178fc,
	"line p4 n2":        0x21326274c6a32b3d,
	"line p4 n4":        0x66ed7b1ff3191f10,
	"fcheavy p2 n4":     0x185e6c94fbdc9931,
	"fcheavy p4 n4":     0xdb09769e826da08,
	"mesh1k p16 n4":     0x452cdb76d545abbd,
	"mesh2k p16 n2":     0x727e4204f0c4b495,
	"resnet50 p16 n32":  0x8ed411d63f4c8f0f,
}

// fcHeavyArch is the benchmark's fcheavy stack: six 512-channel 1x1 convs
// with ReLUs over a 2x2 domain, then a 4-filter prediction conv.
func fcHeavyArch() *nn.Arch {
	b := nn.NewBuilder("fcheavy", nn.Shape{C: 512, H: 2, W: 2})
	c := b.Last()
	for i := 0; i < 6; i++ {
		c = b.Conv(fmt.Sprintf("fc%d", i), c, 512, dist.ConvGeom{K: 1, S: 1}, false)
		c = b.ReLU(fmt.Sprintf("r%d", i), c)
	}
	b.Conv("pred", c, 4, dist.ConvGeom{K: 1, S: 1}, false)
	return b.MustBuild()
}

type goldenCase struct {
	name string
	arch *nn.Arch
	p, n int
}

// goldenCases are the pinned (arch, p, n) points; the ResNet-50 one is
// left out under -short.
func goldenCases(short bool) []goldenCase {
	tiny := models.ResNet50Tiny(64, 10)
	cs := []goldenCase{
		{"resnet-tiny p2 n2", tiny, 2, 2},
		{"resnet-tiny p4 n1", tiny, 4, 1},
		{"resnet-tiny p4 n2", tiny, 4, 2},
		{"resnet-tiny p4 n8", tiny, 4, 8},
		{"resnet-tiny p8 n2", tiny, 8, 2},
		{"line p4 n2", lineArch(), 4, 2},
		{"line p4 n4", lineArch(), 4, 4},
		{"fcheavy p2 n4", fcHeavyArch(), 2, 4},
		{"fcheavy p4 n4", fcHeavyArch(), 4, 4},
		{"mesh1k p16 n4", models.Mesh1K(), 16, 4},
		{"mesh2k p16 n2", models.Mesh2K(), 16, 2},
	}
	if !short {
		cs = append(cs, goldenCase{"resnet50 p16 n32", models.ResNet50(224, 1000), 16, 32})
	}
	return cs
}

func placementHash(pls []dist.Placement) uint64 {
	h := fnv.New64a()
	for _, pl := range pls {
		g := pl.Grid
		fmt.Fprintf(h, "%d,%d,%d,%d,%d;", g.PN, g.PC, g.PH, g.PW, pl.Split)
	}
	return h.Sum64()
}

func TestGoldenOptimizePlacements(t *testing.T) {
	m := perfmodel.Lassen()
	for _, c := range goldenCases(testing.Short()) {
		st, err := Optimize(m, c.arch, c.p, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := placementHash(st.Placements), goldenPlacements[c.name]; got != want {
			t.Errorf("%s: placement hash %#x, want %#x", c.name, got, want)
		}
	}
}
