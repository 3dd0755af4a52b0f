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

// RangeN returns the samples owned by rank.
func (d Dist) RangeN(rank int) Range {
	pn, _, _, _ := d.Grid.Coords(rank)
	return BlockPartition(d.N, d.Grid.PN, pn)
}

// RangeC returns the global channels owned by rank.
func (d Dist) RangeC(rank int) Range {
	_, pc, _, _ := d.Grid.Coords(rank)
	return BlockPartition(d.C, d.Grid.ChannelWays(), pc)
}

// RangeH returns the global rows owned by rank.
func (d Dist) RangeH(rank int) Range {
	_, _, ph, _ := d.Grid.Coords(rank)
	return BlockPartition(d.H, d.Grid.PH, ph)
}

// RangeW returns the global columns owned by rank.
func (d Dist) RangeW(rank int) Range {
	_, _, _, pw := d.Grid.Coords(rank)
	return BlockPartition(d.W, d.Grid.PW, pw)
}

// LocalShape returns rank's shard shape [nLoc, cLoc, hLoc, wLoc].
func (d Dist) LocalShape(rank int) []int {
	return []int{d.RangeN(rank).Len(), d.RangeC(rank).Len(), d.RangeH(rank).Len(), d.RangeW(rank).Len()}
}
