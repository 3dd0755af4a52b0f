package dist

import (
	"fmt"
	"testing"
)

func TestBlockPartitionBalanced(t *testing.T) {
	// 13 over 4 parts: 4,3,3,3 with block 0 largest (the property the
	// performance model's localDims relies on).
	want := []Range{{0, 4}, {4, 7}, {7, 10}, {10, 13}}
	for j, w := range want {
		if got := BlockPartition(13, 4, j); got != w {
			t.Errorf("BlockPartition(13,4,%d) = %v, want %v", j, got, w)
		}
	}
	for _, tc := range []struct{ total, parts int }{{1, 1}, {7, 7}, {64, 3}, {5, 2}, {100, 7}} {
		prev := 0
		for j := 0; j < tc.parts; j++ {
			r := BlockPartition(tc.total, tc.parts, j)
			if r.Lo != prev {
				t.Fatalf("BlockPartition(%d,%d,%d) starts at %d, want %d", tc.total, tc.parts, j, r.Lo, prev)
			}
			if j > 0 && r.Len() > BlockPartition(tc.total, tc.parts, j-1).Len() {
				t.Fatalf("BlockPartition(%d,%d): block %d larger than predecessor", tc.total, tc.parts, j)
			}
			prev = r.Hi
		}
		if prev != tc.total {
			t.Fatalf("BlockPartition(%d,%d) covers [0,%d)", tc.total, tc.parts, prev)
		}
	}
}

func TestRangeAlgebra(t *testing.T) {
	a := Range{Lo: 2, Hi: 8}
	if got := a.Intersect(Range{Lo: 5, Hi: 12}); got != (Range{Lo: 5, Hi: 8}) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Intersect(Range{Lo: 9, Hi: 12}); !got.Empty() {
		t.Errorf("disjoint intersect non-empty: %v", got)
	}
	if a.Len() != 6 || a.Empty() {
		t.Error("len/empty wrong")
	}
	if !a.Contains(Range{Lo: 3, Hi: 8}) || a.Contains(Range{Lo: 1, Hi: 4}) {
		t.Error("contains wrong")
	}
}

func TestGridRankLayout(t *testing.T) {
	g := Grid{PN: 2, PH: 3, PW: 4}
	if g.Size() != 24 || g.SpatialWays() != 12 || g.ChannelWays() != 1 {
		t.Fatal("size/spatial/channel ways wrong")
	}
	// W varies fastest: ranks of one sample group are contiguous.
	for r := 0; r < g.Size(); r++ {
		pn, pc, ph, pw := g.Coords(r)
		if pc != 0 {
			t.Fatalf("rank %d has channel coord %d on a PC=1 grid", r, pc)
		}
		if g.Rank(pn, pc, ph, pw) != r {
			t.Fatalf("rank %d does not round-trip", r)
		}
	}
	if g.Rank(0, 0, 0, 1) != 1 || g.Rank(0, 0, 1, 0) != g.PW || g.Rank(1, 0, 0, 0) != g.SpatialWays() {
		t.Error("rank layout is not W-fastest")
	}
}

func TestGridChannelAxis(t *testing.T) {
	g := Grid{PN: 2, PC: 3, PH: 1, PW: 2}
	if g.Size() != 12 || g.ChannelWays() != 3 || g.SpatialWays() != 2 {
		t.Fatal("4-axis sizes wrong")
	}
	for r := 0; r < g.Size(); r++ {
		pn, pc, ph, pw := g.Coords(r)
		if g.Rank(pn, pc, ph, pw) != r {
			t.Fatalf("rank %d does not round-trip", r)
		}
	}
	// Channel groups of one sample group are contiguous spatial blocks.
	if g.Rank(0, 1, 0, 0) != g.SpatialWays() || g.Rank(1, 0, 0, 0) != g.ChannelWays()*g.SpatialWays() {
		t.Error("rank layout is not W, H, C, N ordered")
	}
	// The zero PC value is the legacy 3-axis layout.
	legacy := Grid{PN: 2, PH: 3, PW: 4}
	if legacy.Norm() != (Grid{PN: 2, PC: 1, PH: 3, PW: 4}) {
		t.Error("Norm does not canonicalize PC")
	}
	if legacy.String() != "{PN:2 PH:3 PW:4}" {
		t.Errorf("legacy grid renders as %s", legacy)
	}
	if g.String() != "{PN:2 PC:3 PH:1 PW:2}" {
		t.Errorf("channel grid renders as %s", g)
	}
}

func TestPlacementNormValidate(t *testing.T) {
	p := Placement{Grid: Grid{PN: 2, PH: 1, PW: 1}, Split: SplitChannel}
	if got := p.Norm(); got.Split != SplitNone {
		t.Errorf("Norm keeps split %v on a PC=1 grid", got.Split)
	}
	cp := Placement{Grid: Grid{PN: 1, PC: 2, PH: 1, PW: 1}, Split: SplitFilter}
	if cp.Norm() != cp {
		t.Error("channel placement must be stable under Norm")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := Placements([]Grid{{PN: 2, PH: 1, PW: 1}}); len(got) != 1 || got[0].Split != SplitNone {
		t.Error("Placements lifting wrong")
	}
}

func TestConvGeomRequiredIn(t *testing.T) {
	for _, g := range []ConvGeom{{K: 3, S: 1, Pad: 1}, {K: 5, S: 2, Pad: 2}, {K: 7, S: 2, Pad: 3}, {K: 1, S: 1, Pad: 0}, {K: 2, S: 2, Pad: 0}} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		in := 16
		out := g.OutSize(in)
		for lo := 0; lo < out; lo++ {
			for hi := lo + 1; hi <= out; hi++ {
				req := g.RequiredIn(Range{Lo: lo, Hi: hi})
				// Brute force: the exact set of input positions windows
				// [lo,hi) touch.
				wantLo, wantHi := 1<<30, -(1 << 30)
				for o := lo; o < hi; o++ {
					for kk := 0; kk < g.K; kk++ {
						i := o*g.S - g.Pad + kk
						if i < wantLo {
							wantLo = i
						}
						if i+1 > wantHi {
							wantHi = i + 1
						}
					}
				}
				if req.Lo != wantLo || req.Hi != wantHi {
					t.Fatalf("geom %+v RequiredIn([%d,%d)) = %v, want [%d,%d)", g, lo, hi, req, wantLo, wantHi)
				}
			}
		}
	}
}

func TestConvGeomRequiredBwd(t *testing.T) {
	for _, g := range []ConvGeom{{K: 3, S: 1, Pad: 1}, {K: 5, S: 2, Pad: 2}, {K: 3, S: 2, Pad: 1}, {K: 1, S: 1, Pad: 0}} {
		in := 17
		out := g.OutSize(in)
		for lo := 0; lo < in; lo++ {
			for hi := lo + 1; hi <= in; hi++ {
				req := g.RequiredBwd(Range{Lo: lo, Hi: hi}, out)
				// Brute force: output positions whose window touches [lo,hi).
				wantLo, wantHi := 1<<30, -(1 << 30)
				for o := 0; o < out; o++ {
					touches := false
					for kk := 0; kk < g.K; kk++ {
						i := o*g.S - g.Pad + kk
						if i >= lo && i < hi {
							touches = true
						}
					}
					if touches {
						if o < wantLo {
							wantLo = o
						}
						if o+1 > wantHi {
							wantHi = o + 1
						}
					}
				}
				if wantHi < wantLo {
					if !req.Empty() {
						t.Fatalf("geom %+v RequiredBwd([%d,%d)) = %v, want empty", g, lo, hi, req)
					}
					continue
				}
				if req.Lo != wantLo || req.Hi != wantHi {
					t.Fatalf("geom %+v RequiredBwd([%d,%d), %d) = %v, want [%d,%d)", g, lo, hi, out, req, wantLo, wantHi)
				}
			}
		}
	}
}

func TestExchanges1DSymmetricAndCovering(t *testing.T) {
	size, parts := 23, 4
	geom := ConvGeom{K: 5, S: 1, Pad: 2}
	reqOf := func(j int) Range {
		return geom.RequiredIn(BlockPartition(size, parts, j))
	}
	type edge struct{ from, to int }
	sent := map[edge]Range{}
	for me := 0; me < parts; me++ {
		_, send := Exchanges1D(size, parts, me, reqOf)
		own := BlockPartition(size, parts, me)
		for _, tr := range send {
			if !own.Contains(tr.Rng) {
				t.Fatalf("rank %d sends %v outside its owned %v", me, tr.Rng, own)
			}
			sent[edge{me, tr.Peer}] = tr.Rng
		}
	}
	for me := 0; me < parts; me++ {
		recv, _ := Exchanges1D(size, parts, me, reqOf)
		covered := map[int]bool{}
		for _, tr := range recv {
			s, ok := sent[edge{tr.Peer, me}]
			if !ok || s != tr.Rng {
				t.Fatalf("rank %d expects %v from %d, but %d sends %v", me, tr.Rng, tr.Peer, tr.Peer, s)
			}
			for i := tr.Rng.Lo; i < tr.Rng.Hi; i++ {
				covered[i] = true
			}
		}
		// Owned plus received strips must cover the clipped required range.
		own := BlockPartition(size, parts, me)
		req := reqOf(me).Intersect(Range{Lo: 0, Hi: size})
		for i := req.Lo; i < req.Hi; i++ {
			if !covered[i] && !(i >= own.Lo && i < own.Hi) {
				t.Fatalf("rank %d: required index %d neither owned nor received", me, i)
			}
		}
	}
}

// TestExchanges1DWideHalo: a halo wider than one block must produce
// multi-peer transfers (the K=7 over 2-row blocks case from the core tests).
func TestExchanges1DWideHalo(t *testing.T) {
	size, parts := 8, 4
	geom := ConvGeom{K: 7, S: 1, Pad: 3}
	reqOf := func(j int) Range {
		return geom.RequiredIn(BlockPartition(size, parts, j))
	}
	recv, _ := Exchanges1D(size, parts, 0, reqOf)
	if len(recv) < 2 {
		t.Fatalf("rank 0 with a 3-wide halo over 2-wide blocks receives from %d peers, want >= 2", len(recv))
	}
}

func TestDistValidateAndShards(t *testing.T) {
	d := Dist{Grid: Grid{PN: 2, PH: 2, PW: 2}, N: 5, C: 3, H: 9, W: 8}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dist{Grid: Grid{PN: 4, PH: 1, PW: 1}, N: 3, C: 1, H: 4, W: 4}).Validate(); err == nil {
		t.Error("N < PN must fail validation")
	}
	// Shard volumes must sum to the global volume.
	total := 0
	for r := 0; r < d.Grid.Size(); r++ {
		s := d.LocalShape(r)
		total += s[0] * s[1] * s[2] * s[3]
	}
	if want := d.N * d.C * d.H * d.W; total != want {
		t.Errorf("shards sum to %d, want %d", total, want)
	}
}

func TestDistChannelShards(t *testing.T) {
	d := Dist{Grid: Grid{PN: 2, PC: 3, PH: 1, PW: 2}, N: 4, C: 7, H: 6, W: 6}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dist{Grid: Grid{PN: 1, PC: 4, PH: 1, PW: 1}, N: 1, C: 3, H: 4, W: 4}).Validate(); err == nil {
		t.Error("C < PC must fail validation")
	}
	total := 0
	for r := 0; r < d.Grid.Size(); r++ {
		s := d.LocalShape(r)
		if s[1] != d.RangeC(r).Len() {
			t.Fatalf("rank %d LocalShape channel %d != RangeC %v", r, s[1], d.RangeC(r))
		}
		total += s[0] * s[1] * s[2] * s[3]
	}
	if want := d.N * d.C * d.H * d.W; total != want {
		t.Errorf("channel shards sum to %d, want %d", total, want)
	}
	// SameLayout must ignore PC normalization.
	a := Dist{Grid: Grid{PN: 2, PH: 1, PW: 1}, N: 4, C: 3, H: 4, W: 4}
	b := Dist{Grid: Grid{PN: 2, PC: 1, PH: 1, PW: 1}, N: 4, C: 3, H: 4, W: 4}
	if !a.SameLayout(b) {
		t.Error("PC:0 and PC:1 grids must describe the same layout")
	}
}

// Validate checks the grid and the split/grid consistency. Channel-split
// grids currently keep the spatial dimensions whole for weight-bearing
// layers; that constraint is enforced by the layer constructors (activation
// layers compose a channel split with spatial blocking freely).
func (p Placement) Validate() error {
	if err := p.Grid.Validate(); err != nil {
		return err
	}
	if p.Split != SplitNone && p.Split != SplitChannel && p.Split != SplitFilter {
		return fmt.Errorf("dist: invalid split %v", p.Split)
	}
	return nil
}

// Contains reports whether r covers every index of o.
func (r Range) Contains(o Range) bool {
	return o.Empty() || (r.Lo <= o.Lo && o.Hi <= r.Hi)
}
