package dist

import "fmt"

// Dist is a blocked distribution of a global NCHW tensor over a Grid: the
// sample dimension is blocked PN ways, the channel dimension PC ways, and
// the spatial dimensions PH x PW ways — the family of distributions of
// Section III-A extended with the channel axis of Section III-D. PC == 1
// (or the legacy zero value) replicates nothing: every dimension of the
// tensor is partitioned, so a Dist always describes a true partition of the
// global tensor and any pair of Dists of the same global tensor can be
// remapped with core.Redistribute.
type Dist struct {
	Grid       Grid
	N, C, H, W int
}

// Validate checks that every partitioned dimension has at least one index
// per block, so no rank owns an empty shard.
func (d Dist) Validate() error {
	if err := d.Grid.Validate(); err != nil {
		return err
	}
	if d.C < d.Grid.ChannelWays() {
		return fmt.Errorf("dist: %d channels cannot be blocked %d ways", d.C, d.Grid.ChannelWays())
	}
	if d.N < d.Grid.PN {
		return fmt.Errorf("dist: %d samples cannot be blocked %d ways", d.N, d.Grid.PN)
	}
	if d.H < d.Grid.PH {
		return fmt.Errorf("dist: height %d cannot be blocked %d ways", d.H, d.Grid.PH)
	}
	if d.W < d.Grid.PW {
		return fmt.Errorf("dist: width %d cannot be blocked %d ways", d.W, d.Grid.PW)
	}
	return nil
}

// SameLayout reports whether d and o describe the same distribution of the
// same global tensor (grids compared in normalized form).
func (d Dist) SameLayout(o Dist) bool {
	return d.Grid.Norm() == o.Grid.Norm() && d.N == o.N && d.C == o.C && d.H == o.H && d.W == o.W
}

// Block returns rank's block: its samples and global channels, rows and
// columns.
func (d Dist) Block(rank int) (n, c, h, w Range) {
	pn, pc, ph, pw := d.Grid.Coords(rank)
	return BlockPartition(d.N, d.Grid.PN, pn), BlockPartition(d.C, d.Grid.ChannelWays(), pc),
		BlockPartition(d.H, d.Grid.PH, ph), BlockPartition(d.W, d.Grid.PW, pw)
}

// RangeN, RangeC, RangeH and RangeW return one dimension of rank's Block.
func (d Dist) RangeN(rank int) Range { n, _, _, _ := d.Block(rank); return n }
func (d Dist) RangeC(rank int) Range { _, c, _, _ := d.Block(rank); return c }
func (d Dist) RangeH(rank int) Range { _, _, h, _ := d.Block(rank); return h }
func (d Dist) RangeW(rank int) Range { _, _, _, w := d.Block(rank); return w }

// Overlap returns the intersection of d's block for rank r with o's block
// for rank q. d and o describe the same global tensor, possibly over
// different grids.
func (d Dist) Overlap(r int, o Dist, q int) (n, c, h, w Range) {
	dn, dc, dh, dw := d.Block(r)
	on, oc, oh, ow := o.Block(q)
	return dn.Intersect(on), dc.Intersect(oc), dh.Intersect(oh), dw.Intersect(ow)
}

// SendWords returns the number of words rank sends to other ranks in a
// redistribution from src to dst: the Shuffle(Di, Dj) volume of Section
// V-B. dst's blocks tile the tensor, so rank sends its whole src block but
// the part its own dst block keeps: O(1), not a loop over the p peers.
// Both grids must have the same size.
func SendWords(src, dst Dist, rank int) int {
	if src.Grid.Size() != dst.Grid.Size() {
		panic(fmt.Sprintf("dist: send words between grids of %d and %d ranks", src.Grid.Size(), dst.Grid.Size()))
	}
	return volume(src.Block(rank)) - volume(src.Overlap(rank, dst, rank))
}

func volume(n, c, h, w Range) int { return n.Len() * c.Len() * h.Len() * w.Len() }

// LocalShape returns rank's shard shape [nLoc, cLoc, hLoc, wLoc].
func (d Dist) LocalShape(rank int) []int {
	n, c, h, w := d.Block(rank)
	return []int{n.Len(), c.Len(), h.Len(), w.Len()}
}
