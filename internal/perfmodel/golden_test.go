package perfmodel

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
)

// goldenCNNCost pins the bits of every NetCost scalar and every per-layer
// cost CNNCost returns on each feasible uniform grid of three networks,
// under the default options and the three overlap ablations, so a
// restructuring of the network model cannot move a single bit unnoticed.
// Regenerate only for a change meant to alter the model.
var goldenCNNCost = map[string]uint64{
	"mesh1k p16 n4 default":     0xf4b0d4bf0df21247,
	"mesh1k p16 n4 no-halo":     0x275f40ac7ad047fa,
	"mesh1k p16 n4 no-ar":       0x10bd87488fb8aa5c,
	"mesh1k p16 n4 none":        0xe4aba6bbe8933746,
	"mesh2k p16 n2 default":     0xeca18162b8533d71,
	"mesh2k p16 n2 no-halo":     0xe541943932e918c2,
	"mesh2k p16 n2 no-ar":       0xf9c88ddcda5a644c,
	"mesh2k p16 n2 none":        0xbd5ec57367b8cfee,
	"resnet-tiny p4 n8 default": 0x84c37125c244d4bb,
	"resnet-tiny p4 n8 no-halo": 0xec83753f4c9a8407,
	"resnet-tiny p4 n8 no-ar":   0x578022c0e7b334ce,
	"resnet-tiny p4 n8 none":    0x24461eeb3063a4fe,
}

// goldenOptions are DefaultOptions and the ablations of the paper's
// overlap table (internal/bench AblationOverlap).
var goldenOptions = []struct {
	name string
	opt  Options
}{
	{"default", DefaultOptions()},
	{"no-halo", Options{OverlapHalo: false, OverlapAllreduce: true, CountElementwise: true}},
	{"no-ar", Options{OverlapHalo: true, OverlapAllreduce: false, CountElementwise: true}},
	{"none", Options{OverlapHalo: false, OverlapAllreduce: false, CountElementwise: true}},
}

// uniformGrids lists every sample x spatial grid of exactly p ranks with at
// most n sample ways that fits arch in memory, in a fixed order.
func uniformGrids(m Machine, arch *nn.Arch, p, n int) []dist.Grid {
	var out []dist.Grid
	for pn := 1; pn <= p && pn <= n; pn++ {
		if p%pn != 0 {
			continue
		}
		sp := p / pn
		for ph := 1; ph <= sp; ph++ {
			if sp%ph != 0 {
				continue
			}
			g := dist.Grid{PN: pn, PH: ph, PW: sp / ph}
			if Feasible(m, arch, g, n) {
				out = append(out, g)
			}
		}
	}
	return out
}

func writeBits(w io.Writer, xs ...float64) {
	for _, x := range xs {
		fmt.Fprintf(w, "%016x,", math.Float64bits(x))
	}
}

func TestGoldenCNNCostBits(t *testing.T) {
	m := Lassen()
	cases := []struct {
		name string
		arch *nn.Arch
		p, n int
	}{
		{"mesh1k p16 n4", models.Mesh1K(), 16, 4},
		{"mesh2k p16 n2", models.Mesh2K(), 16, 2},
		{"resnet-tiny p4 n8", models.ResNet50Tiny(64, 10), 4, 8},
	}
	got := map[string]uint64{}
	for _, c := range cases {
		grids := uniformGrids(m, c.arch, c.p, c.n)
		if len(grids) == 0 {
			t.Fatalf("%s: no feasible uniform grid", c.name)
		}
		for _, o := range goldenOptions {
			h := fnv.New64a()
			for _, g := range grids {
				nc, err := CNNCost(m, c.arch, g, c.n, o.opt)
				if err != nil {
					t.Fatalf("%s %v: %v", c.name, g, err)
				}
				fmt.Fprintf(h, "%v:", g)
				writeBits(h, nc.MiniBatchTime, nc.FPTime, nc.BPTime, nc.ARExposed, nc.MemoryBytes)
				for _, lb := range nc.PerLayer {
					lc := lb.Cost
					writeBits(h, lc.FP, lc.BPx, lc.BPw, lc.BPa, lc.HaloFwd, lc.HaloBwd, lb.Elem)
				}
			}
			got[c.name+" "+o.name] = h.Sum64()
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want := goldenCNNCost[name]; got[name] != want {
			t.Errorf("%s: hash %#x, want %#x", name, got[name], want)
		}
	}
}
