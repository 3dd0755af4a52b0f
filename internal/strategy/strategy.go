// Package strategy implements the parallel execution strategy optimizer of
// Section V-C: per-layer candidate placements are generated heuristically —
// sample, spatial, and hybrid grids plus the channel/filter splits of
// Section III-D — and the assignment minimizing modeled end-to-end time
// (layer costs plus data-redistribution costs between adjacent layers) is
// found by reduction to single-source shortest path on a layered DAG.
// Networks with branches (ResNets) are handled with the paper's
// longest-path-first heuristic.
package strategy

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// Strategy assigns one Placement (grid + weight split) to every layer of an
// architecture and records the modeled cost.
type Strategy struct {
	Placements []dist.Placement
	Cost       float64
}

// Uniform returns a strategy using grid g (replicated weights) for every
// layer.
func Uniform(arch *nn.Arch, g dist.Grid) Strategy {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(g)
	}
	return Strategy{Placements: pls}
}

// Candidates enumerates the load-balanced processor grids using exactly p
// processors for a layer of the given activation shape and batch size,
// ordered cheapest-communication-first (sample parallelism, then 1-D and
// 2-D spatial splits) per the paper's heuristic.
func Candidates(p, n int, sh nn.Shape) []dist.Grid {
	var out []dist.Grid
	for pn := p; pn >= 1; pn-- {
		if p%pn != 0 || pn > n {
			continue
		}
		sp := p / pn
		for ph := 1; ph <= sp; ph++ {
			if sp%ph != 0 {
				continue
			}
			pw := sp / ph
			if ph > sh.H || pw > sh.W {
				continue
			}
			// Prefer near-square spatial splits; skip extremely skinny ones
			// (the paper prunes with heuristics).
			if ph > 8*pw || pw > 8*ph {
				continue
			}
			out = append(out, dist.Grid{PN: pn, PH: ph, PW: pw})
		}
	}
	// Cheapest communication first: more sample ways, then squarer grids.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PN != out[j].PN {
			return out[i].PN > out[j].PN
		}
		di := absInt(out[i].PH - out[i].PW)
		dj := absInt(out[j].PH - out[j].PW)
		return di < dj
	})
	return out
}

// PlacementCandidates enumerates per-layer placements on p processors: the
// grid candidates with replicated weights, plus — when the layer's channel
// extents allow it — sample x channel hybrid grids with channel- and
// filter-parallel weight splits for convolutions (plain channel-blocked
// activations for everything else). Grid candidates come first, so the
// heuristics that seed from the cheapest candidate keep the paper's
// sample-first preference.
func PlacementCandidates(p, n int, spec nn.Spec, inSh nn.Shape) []dist.Placement {
	out := dist.Placements(Candidates(p, n, inSh))
	if spec.Kind == nn.KindInput {
		return out
	}
	for pn := p; pn >= 1; pn-- {
		if p%pn != 0 || pn > n {
			continue
		}
		pc := p / pn
		if pc == 1 || inSh.C < pc {
			continue
		}
		g := dist.Grid{PN: pn, PC: pc, PH: 1, PW: 1}
		if spec.Kind == nn.KindConv {
			if spec.F >= pc {
				out = append(out,
					dist.Placement{Grid: g, Split: dist.SplitChannel},
					dist.Placement{Grid: g, Split: dist.SplitFilter})
			}
		} else {
			out = append(out, dist.P(g))
		}
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// LayerCost evaluates the modeled cost of one layer under placement pl.
func LayerCost(m perfmodel.Machine, spec nn.Spec, inShape nn.Shape, n int, pl dist.Placement) float64 {
	g := pl.Grid
	switch spec.Kind {
	case nn.KindConv:
		cs := perfmodel.ConvSpec{N: n, C: inShape.C, H: inShape.H, W: inShape.W, F: spec.F, Geom: spec.Geom}
		return m.ConvPlacedCost(cs, pl, true).Total()
	case nn.KindMaxPool:
		cs := perfmodel.ConvSpec{N: n, C: inShape.C, H: inShape.H, W: inShape.W, F: inShape.C, Geom: spec.Geom}
		return m.PoolLayerCost(cs, g, true).Total()
	case nn.KindBatchNorm:
		cs := perfmodel.ConvSpec{N: n, C: inShape.C, H: inShape.H, W: inShape.W}
		return m.ElementwiseCost(cs, g, 4)
	case nn.KindReLU, nn.KindAdd, nn.KindGlobalAvgPool:
		cs := perfmodel.ConvSpec{N: n, C: inShape.C, H: inShape.H, W: inShape.W}
		return m.ElementwiseCost(cs, g, 2)
	default:
		return 0
	}
}

// ShuffleCost prices the data redistribution between distributions of the
// same tensor on adjacent layers (Section III-C / V-B): zero when layouts
// coincide, otherwise an all-to-all moving the largest rank's share, twice
// (forward activations and backward error signals). Only the grids matter —
// the weight split does not change the activation layout.
func ShuffleCost(m perfmodel.Machine, sh nn.Shape, n int, from, to dist.Grid) float64 {
	if from.Norm() == to.Norm() {
		return 0
	}
	src := dist.Dist{Grid: from, N: n, C: sh.C, H: sh.H, W: sh.W}
	dst := dist.Dist{Grid: to, N: n, C: sh.C, H: sh.H, W: sh.W}
	if src.Validate() != nil || dst.Validate() != nil {
		return inf
	}
	maxWords := 0
	for r := 0; r < from.Size(); r++ {
		if w := core.ShuffleVolume(src, dst, r); w > maxWords {
			maxWords = w
		}
	}
	spans := from.Size() > m.GPUsPerNode
	return 2 * m.AllToAll(maxWords, from.Size(), spans)
}

const inf = 1e30

// Optimize finds a good per-layer strategy for arch on p processors with
// global batch n. Line networks are solved exactly by shortest path; branchy
// networks use the longest-path-first heuristic of Section V-C. The
// returned cost is the sum of layer costs and shuffle costs (an upper-bound
// proxy for the overlapped execution the runtime performs).
func Optimize(m perfmodel.Machine, arch *nn.Arch, p, n int) (Strategy, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return Strategy{}, err
	}
	L := len(arch.Specs)
	children := make([][]int, L)
	for i, s := range arch.Specs {
		for _, par := range s.Parents {
			children[par] = append(children[par], i)
		}
	}
	isLine := true
	for i := 0; i < L; i++ {
		if len(children[i]) > 1 || len(arch.Specs[i].Parents) > 1 {
			isLine = false
			break
		}
	}

	cands := make([][]dist.Placement, L)
	for i, s := range arch.Specs {
		sh := shapes[i]
		if len(s.Parents) > 0 {
			sh = shapes[s.Parents[0]]
		}
		c := PlacementCandidates(p, n, s, sh)
		if len(c) == 0 {
			return Strategy{}, fmt.Errorf("strategy: no feasible distribution for layer %d (%s)", i, s.Name)
		}
		cands[i] = c
	}

	if isLine {
		pls, cost := solveLine(m, arch, shapes, cands, n, nil)
		return Strategy{Placements: pls, Cost: cost}, nil
	}
	return optimizeBranchy(m, arch, shapes, cands, children, p, n)
}

// solveLine runs the shortest-path DP over a line network. fixed, if
// non-nil, pins some layers to a specific placement (used by the branchy
// heuristic); pinned layers get that single candidate.
func solveLine(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, cands [][]dist.Placement, n int, fixed []*dist.Placement) ([]dist.Placement, float64) {
	L := len(arch.Specs)
	candOf := func(i int) []dist.Placement {
		if fixed != nil && fixed[i] != nil {
			return []dist.Placement{*fixed[i]}
		}
		return cands[i]
	}
	// dp[i][k]: cost of the best assignment of layers 0..i with layer i
	// using candidate k; edges carry the shuffle between i-1 and i.
	dp := make([][]float64, L)
	choice := make([][]int, L)
	for i := 0; i < L; i++ {
		cs := candOf(i)
		dp[i] = make([]float64, len(cs))
		choice[i] = make([]int, len(cs))
		inSh := shapes[i]
		if len(arch.Specs[i].Parents) > 0 {
			inSh = shapes[arch.Specs[i].Parents[0]]
		}
		for k, pl := range cs {
			lc := LayerCost(m, arch.Specs[i], inSh, n, pl)
			if i == 0 {
				dp[i][k] = lc
				continue
			}
			best := inf
			bestJ := 0
			for j, ppl := range candOf(i - 1) {
				// The tensor shuffled between the layers is layer i's input
				// (= layer i-1's output).
				c := dp[i-1][j] + ShuffleCost(m, inSh, n, ppl.Grid, pl.Grid)
				if c < best {
					best = c
					bestJ = j
				}
			}
			dp[i][k] = best + lc
			choice[i][k] = bestJ
		}
	}
	bestK, bestC := 0, inf
	for k, c := range dp[L-1] {
		if c < bestC {
			bestC, bestK = c, k
		}
	}
	pls := make([]dist.Placement, L)
	k := bestK
	for i := L - 1; i >= 0; i-- {
		pls[i] = candOf(i)[k]
		k = choice[i][k]
	}
	return pls, bestC
}

// optimizeBranchy applies the longest-path-first heuristic: find the most
// expensive source-to-sink path, optimize it as a line (respecting any
// already-fixed layers), pin its placements, and repeat on the next longest
// path until every layer is assigned.
func optimizeBranchy(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, cands [][]dist.Placement, children [][]int, p, n int) (Strategy, error) {
	L := len(arch.Specs)
	fixed := make([]*dist.Placement, L)
	assigned := 0

	nodeWeight := func(i int) float64 {
		inSh := shapes[i]
		if len(arch.Specs[i].Parents) > 0 {
			inSh = shapes[arch.Specs[i].Parents[0]]
		}
		// Weight by the cheapest candidate cost; unassigned layers count
		// extra so paths through them are preferred.
		w := LayerCost(m, arch.Specs[i], inSh, n, cands[i][0])
		if fixed[i] == nil {
			w += 1e-9
		}
		return w
	}

	for assigned < L {
		// Longest (max-weight) path from layer 0 to the final layer through
		// the DAG, counting only unassigned node weights (plus epsilon so
		// ties prefer unassigned coverage).
		best := make([]float64, L)
		from := make([]int, L)
		for i := range from {
			from[i] = -1
			best[i] = -inf
		}
		best[0] = 0
		for i := 0; i < L; i++ {
			if best[i] == -inf {
				continue
			}
			for _, ch := range children[i] {
				w := 0.0
				if fixed[ch] == nil {
					w = nodeWeight(ch)
				}
				if best[i]+w > best[ch] {
					best[ch] = best[i] + w
					from[ch] = i
				}
			}
		}
		// Trace the path.
		var path []int
		for v := L - 1; v != -1; v = from[v] {
			path = append([]int{v}, path...)
		}
		// Solve the path as a line; non-path neighbors contribute via their
		// fixed placements where available (approximation).
		pathPls, _ := solvePath(m, arch, shapes, cands, n, fixed, path)
		progressed := false
		for idx, li := range path {
			if fixed[li] == nil {
				pl := pathPls[idx]
				fixed[li] = &pl
				assigned++
				progressed = true
			}
		}
		if !progressed {
			// Remaining layers unreachable through new paths: assign each
			// greedily to match a fixed neighbor — but only when the
			// neighbor's placement is actually one of this layer's
			// candidates (a parent's channel grid may be illegal here:
			// wrong split kind for a conv, or channel extents too small).
			for i := 0; i < L; i++ {
				if fixed[i] != nil {
					continue
				}
				pl := cands[i][0]
				for _, par := range arch.Specs[i].Parents {
					if fixed[par] == nil {
						continue
					}
					inherited := *fixed[par]
					if arch.Specs[i].Kind != nn.KindConv {
						inherited.Split = dist.SplitNone
					}
					for _, c := range cands[i] {
						if c == inherited {
							pl = inherited
							break
						}
					}
				}
				fixed[i] = &pl
				assigned++
			}
		}
	}

	pls := make([]dist.Placement, L)
	for i := range pls {
		pls[i] = *fixed[i]
	}
	return Strategy{Placements: pls, Cost: Evaluate(m, arch, shapes, pls, n)}, nil
}

// solvePath runs the line DP restricted to an explicit path of layer
// indices.
func solvePath(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, cands [][]dist.Placement, n int, fixed []*dist.Placement, path []int) ([]dist.Placement, float64) {
	P := len(path)
	candOf := func(pi int) []dist.Placement {
		li := path[pi]
		if fixed[li] != nil {
			return []dist.Placement{*fixed[li]}
		}
		return cands[li]
	}
	dp := make([][]float64, P)
	choice := make([][]int, P)
	for pi := 0; pi < P; pi++ {
		li := path[pi]
		cs := candOf(pi)
		dp[pi] = make([]float64, len(cs))
		choice[pi] = make([]int, len(cs))
		inSh := shapes[li]
		if len(arch.Specs[li].Parents) > 0 {
			inSh = shapes[arch.Specs[li].Parents[0]]
		}
		for k, pl := range cs {
			lc := LayerCost(m, arch.Specs[li], inSh, n, pl)
			if pi == 0 {
				dp[pi][k] = lc
				continue
			}
			bestC, bestJ := inf, 0
			for j, ppl := range candOf(pi - 1) {
				c := dp[pi-1][j] + ShuffleCost(m, inSh, n, ppl.Grid, pl.Grid)
				if c < bestC {
					bestC, bestJ = c, j
				}
			}
			dp[pi][k] = bestC + lc
			choice[pi][k] = bestJ
		}
	}
	bestK, bestC := 0, inf
	for k, c := range dp[P-1] {
		if c < bestC {
			bestC, bestK = c, k
		}
	}
	out := make([]dist.Placement, P)
	k := bestK
	for pi := P - 1; pi >= 0; pi-- {
		out[pi] = candOf(pi)[k]
		k = choice[pi][k]
	}
	return out, bestC
}

// Evaluate sums layer costs and shuffle costs of a complete assignment.
func Evaluate(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, pls []dist.Placement, n int) float64 {
	total := 0.0
	for i, s := range arch.Specs {
		inSh := shapes[i]
		if len(s.Parents) > 0 {
			inSh = shapes[s.Parents[0]]
		}
		total += LayerCost(m, s, inSh, n, pls[i])
		for _, par := range s.Parents {
			total += ShuffleCost(m, inSh, n, pls[par].Grid, pls[i].Grid)
		}
	}
	return total
}

// BestUniform evaluates every candidate grid applied uniformly to the whole
// network with the full CNN model (incl. allreduce overlap) and returns the
// best, mirroring the configurations the paper's evaluation uses.
func BestUniform(m perfmodel.Machine, arch *nn.Arch, p, n int) (dist.Grid, perfmodel.NetCost, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return dist.Grid{}, perfmodel.NetCost{}, err
	}
	minShape := shapes[0]
	for _, sh := range shapes {
		if sh.H > 1 && sh.H < minShape.H {
			minShape = sh
		}
	}
	var bestG dist.Grid
	var bestC perfmodel.NetCost
	found := false
	for _, g := range Candidates(p, n, minShape) {
		if !perfmodel.Feasible(m, arch, g, n) {
			continue
		}
		nc, err := perfmodel.CNNCost(m, arch, g, n, perfmodel.DefaultOptions())
		if err != nil {
			continue
		}
		if !found || nc.MiniBatchTime < bestC.MiniBatchTime {
			bestG, bestC = g, nc
			found = true
		}
	}
	if !found {
		return dist.Grid{}, perfmodel.NetCost{}, fmt.Errorf("strategy: no feasible uniform decomposition on %d processors", p)
	}
	return bestG, bestC, nil
}
