// Package strategy implements the parallel execution strategy optimizer of
// Section V-C: per-layer candidate placements are generated heuristically —
// sample, spatial, and hybrid grids plus the channel/filter splits of
// Section III-D — and an assignment is found by reduction to single-source
// shortest path on a layered DAG over the additive part of the performance
// model (layer costs plus data-redistribution costs between adjacent
// layers). Networks with branches (ResNets) are handled with the paper's
// longest-path-first heuristic. The search only chooses placements: every
// cost it reports comes from perfmodel.Evaluate, the model the paper
// tables and BestUniform use.
package strategy

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/perfmodel"
)

// Strategy assigns one Placement (grid + weight split) to every layer of an
// architecture and records its modeled mini-batch time (perfmodel.Evaluate).
type Strategy struct {
	Placements []dist.Placement
	Cost       float64
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

// dpWeight is the search's additive per-layer cost: forward, backward and
// elementwise time from perfmodel's switch, plus the weight-gradient
// allreduce for convolutions only — batchnorm's parameter allreduce is
// left out of the search.
func dpWeight(m perfmodel.Machine, spec nn.Spec, in nn.Shape, n int, pl dist.Placement) float64 {
	lb := m.PlacedLayerCost(spec, in, n, pl, perfmodel.DefaultOptions())
	w := lb.Cost.FP + lb.Cost.BPx + lb.Cost.BPw + lb.Elem
	if spec.Kind == nn.KindConv {
		w += lb.Cost.BPa
	}
	return w
}

// inShape is layer i's input shape: its first parent's output, or its own
// shape for the input layer.
func inShape(arch *nn.Arch, shapes []nn.Shape, i int) nn.Shape {
	if ps := arch.Specs[i].Parents; len(ps) > 0 {
		return shapes[ps[0]]
	}
	return shapes[i]
}

const inf = 1e30

// Optimize finds a good per-layer strategy for arch on p processors with
// global batch n, using the longest-path-first heuristic of Section V-C:
// find the most expensive source-to-sink path, solve it exactly by
// shortest path (respecting layers already fixed), pin its placements,
// and repeat until every layer is assigned. A line network is one path,
// so it is solved exactly. The returned Cost is perfmodel.Evaluate's
// modeled mini-batch time for the returned placements.
func Optimize(m perfmodel.Machine, arch *nn.Arch, p, n int) (Strategy, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return Strategy{}, err
	}
	cands := make([][]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		c := PlacementCandidates(p, n, s, inShape(arch, shapes, i))
		if len(c) == 0 {
			return Strategy{}, fmt.Errorf("strategy: no feasible distribution for layer %d (%s)", i, s.Name)
		}
		cands[i] = c
	}
	pls := assign(m, arch, shapes, cands, n)
	nc, err := perfmodel.Evaluate(m, arch, pls, n, perfmodel.DefaultOptions())
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Placements: pls, Cost: nc.MiniBatchTime}, nil
}

// assign applies the longest-path-first heuristic and returns one
// placement per layer.
func assign(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, cands [][]dist.Placement, n int) []dist.Placement {
	L := len(arch.Specs)
	children := make([][]int, L)
	for i, s := range arch.Specs {
		for _, par := range s.Parents {
			children[par] = append(children[par], i)
		}
	}
	fixed := make([]*dist.Placement, L)
	assigned := 0
	// The DP prices every (previous candidate, candidate) pair at every
	// path step and on every longest-path round, and candidates share
	// grids, so most redistributions repeat; each costs an O(p) scan of
	// dist.SendWords. Price each once per call.
	shuffles := make(map[shuffleKey]float64)
	shuffle := func(sh nn.Shape, from, to dist.Grid) float64 {
		k := shuffleKey{sh, from, to}
		c, ok := shuffles[k]
		if !ok {
			c = m.ShuffleCost(sh, n, from, to)
			shuffles[k] = c
		}
		return c
	}

	// An unassigned layer weighs its cheapest-communication candidate's
	// cost, plus an epsilon so ties prefer paths through more of them.
	nodeWeight := func(i int) float64 {
		return dpWeight(m, arch.Specs[i], inShape(arch, shapes, i), n, cands[i][0]) + 1e-9
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
		pathPls := solvePath(m, arch, shapes, cands, n, fixed, path, shuffle)
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
	return pls
}

// shuffleKey identifies one priced redistribution within an Optimize call,
// whose batch size is fixed.
type shuffleKey struct {
	sh       nn.Shape
	from, to dist.Grid
}

// solvePath runs the shortest-path DP over an explicit path of layer
// indices; layers already fixed get that single candidate. The edge into
// a layer carries the shuffle of its input (the previous path layer's
// output).
func solvePath(m perfmodel.Machine, arch *nn.Arch, shapes []nn.Shape, cands [][]dist.Placement, n int, fixed []*dist.Placement, path []int, shuffle func(sh nn.Shape, from, to dist.Grid) float64) []dist.Placement {
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
		inSh := inShape(arch, shapes, li)
		for k, pl := range cs {
			lc := dpWeight(m, arch.Specs[li], inSh, n, pl)
			if pi == 0 {
				dp[pi][k] = lc
				continue
			}
			bestC, bestJ := inf, 0
			for j, ppl := range candOf(pi - 1) {
				c := dp[pi-1][j] + shuffle(inSh, ppl.Grid, pl.Grid)
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
	return out
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
