package dist

import "fmt"

// Split selects how a weight-bearing layer partitions its parameters when
// its grid splits the channel axis (Section III-D). It is meaningful only
// for layers with a filter dimension (convolutions); activation-only layers
// ignore it.
type Split int

// Weight split modes.
const (
	// SplitNone replicates the weights on every rank — the Section III-A
	// family. Convolutions require PC == 1 under SplitNone.
	SplitNone Split = iota
	// SplitChannel partitions conv weights on the input-channel dimension:
	// each channel group holds W[:, cBlk], consumes its channel shard of x
	// with no forward halo cost, and completes the channel sum of Eq. 1
	// with a forward activation reduce-scatter; backward-data is local.
	SplitChannel
	// SplitFilter partitions conv weights on the output-filter dimension:
	// each channel group holds W[fBlk, :], allgathers the input channels,
	// computes its filter block locally, and completes backward-data with
	// a reduce-scatter; weight gradients are local to the filter block.
	SplitFilter
)

func (s Split) String() string {
	switch s {
	case SplitNone:
		return "replicated"
	case SplitChannel:
		return "channel"
	case SplitFilter:
		return "filter"
	default:
		return fmt.Sprintf("split(%d)", int(s))
	}
}

// Placement is the per-layer parallel execution placement: the 4-axis
// process grid the layer's activations are blocked over, plus — when the
// grid splits the channel axis — which weight dimension the layer
// partitions. It is the single type every later scaling decision is
// expressed through: nn.StrategyNet consumes one Placement per layer,
// strategy.Optimize emits them, and internal/perfmodel prices them.
type Placement struct {
	Grid  Grid
	Split Split
}

// P wraps a grid in a replicated-weight placement (the PC == 1 family).
func P(g Grid) Placement { return Placement{Grid: g} }

// Placements lifts a slice of grids to replicated-weight placements — the
// bridge from the legacy per-layer-grid API.
func Placements(grids []Grid) []Placement {
	out := make([]Placement, len(grids))
	for i, g := range grids {
		out[i] = P(g)
	}
	return out
}

// Norm canonicalizes: the grid's channel axis is normalized and a placement
// that does not split channels always carries SplitNone, so normalized
// placements compare equal whenever they describe the same execution.
func (p Placement) Norm() Placement {
	p.Grid = p.Grid.Norm()
	if p.Grid.PC == 1 {
		p.Split = SplitNone
	}
	return p
}

func (p Placement) String() string {
	if p.Grid.ChannelWays() > 1 && p.Split != SplitNone {
		return fmt.Sprintf("%v/%v", p.Grid, p.Split)
	}
	return p.Grid.String()
}
