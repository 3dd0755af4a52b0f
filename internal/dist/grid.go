package dist

import "fmt"

// Grid is a 4-dimensional logical process grid PN x PC x PH x PW: PN-way
// sample parallelism crossed with a PC-way channel decomposition and a
// PH x PW spatial decomposition (Section III-A's hybrid parallelism plus
// the channel/filter axis of Section III-D). Ranks are laid out W-fastest,
// then H, then C, then N, so the ranks of one sample group (fixed pn) are
// contiguous and, within it, each channel group's spatial block is
// contiguous — the layout the node-packing heuristics in internal/perfmodel
// assume.
//
// PC == 0 is accepted everywhere and means PC == 1 (the legacy 3-axis
// layout), so existing {PN, PH, PW} literals keep working; Norm
// canonicalizes. Code that compares grids or uses them as map keys should
// compare normalized grids.
type Grid struct {
	PN, PC, PH, PW int
}

// ChannelWays returns the number of channel blocks (PC, with the zero value
// normalized to 1).
func (g Grid) ChannelWays() int {
	if g.PC < 1 {
		return 1
	}
	return g.PC
}

// Norm returns the canonical form of g with PC >= 1, so normalized grids
// compare equal whenever they describe the same layout.
func (g Grid) Norm() Grid {
	g.PC = g.ChannelWays()
	return g
}

// Size returns the total number of processors in the grid.
func (g Grid) Size() int { return g.PN * g.ChannelWays() * g.PH * g.PW }

// SpatialWays returns the number of processors sharing each (sample,
// channel) group.
func (g Grid) SpatialWays() int { return g.PH * g.PW }

// Validate checks that every grid dimension is at least 1 (PC may be 0,
// meaning 1).
func (g Grid) Validate() error {
	if g.PN < 1 || g.PC < 0 || g.PH < 1 || g.PW < 1 {
		return fmt.Errorf("dist: invalid grid %+v (all dimensions must be >= 1)", g)
	}
	return nil
}

// Rank maps grid coordinates to the linear rank (pw fastest).
func (g Grid) Rank(pn, pc, ph, pw int) int {
	return (((pn*g.ChannelWays())+pc)*g.PH+ph)*g.PW + pw
}

// Coords inverts Rank.
func (g Grid) Coords(rank int) (pn, pc, ph, pw int) {
	pw = rank % g.PW
	rank /= g.PW
	ph = rank % g.PH
	rank /= g.PH
	pc = rank % g.ChannelWays()
	pn = rank / g.ChannelWays()
	return
}

// String prints the grid; the channel axis appears only when it is actually
// split, so legacy 3-axis layouts render exactly as before.
func (g Grid) String() string {
	if g.ChannelWays() > 1 {
		return fmt.Sprintf("{PN:%d PC:%d PH:%d PW:%d}", g.PN, g.PC, g.PH, g.PW)
	}
	return fmt.Sprintf("{PN:%d PH:%d PW:%d}", g.PN, g.PH, g.PW)
}
