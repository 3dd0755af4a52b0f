package perfmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nn"
)

// Options controls the model's overlap assumptions.
type Options struct {
	// OverlapHalo enables interior/boundary overlap of halo exchanges
	// (Section IV-A). On by default in the evaluation.
	OverlapHalo bool
	// OverlapAllreduce greedily hides weight-gradient allreduces behind
	// backpropagation compute of earlier layers (Section V-B).
	OverlapAllreduce bool
	// CountElementwise prices batchnorm/ReLU/add as memory-bound kernels
	// instead of treating them as free like the paper's model.
	CountElementwise bool
}

// DefaultOptions mirrors the paper's implementation: all overlaps on,
// lower-order layers priced.
func DefaultOptions() Options {
	return Options{OverlapHalo: true, OverlapAllreduce: true, CountElementwise: true}
}

// LayerBreakdown reports one layer's modeled times.
type LayerBreakdown struct {
	Name string
	Kind nn.Kind
	Cost LayerCost
	Elem float64 // elementwise cost (fwd+bwd) if priced
}

// NetCost is the whole-CNN estimate of Section V-B.
type NetCost struct {
	// MiniBatchTime is the modeled end-to-end time of one training
	// iteration (forward + backward + exposed allreduce).
	MiniBatchTime float64
	FPTime        float64
	BPTime        float64 // backward compute incl. halos and hidden allreduce
	ARExposed     float64 // allreduce time not hidden behind computation
	PerLayer      []LayerBreakdown
	MemoryBytes   float64 // peak per-GPU memory estimate (CNNCost only)
}

// PlacedLayerCost is the model's one per-layer switch: it prices layer spec
// under placement pl, where in is the layer's input shape and n the global
// mini-batch. Convolutions and max pooling carry their halo exchanges and
// collectives in Cost; batchnorm, ReLU, add and global average pooling are
// memory-bound passes in Elem. On a channel grid the batchnorm and global
// average pooling collectives carry this rank's channel block: batchnorm
// allreduces its 2·C/PC parameter gradients over the p/PC ranks holding
// the same block.
func (m Machine) PlacedLayerCost(spec nn.Spec, in nn.Shape, n int, pl dist.Placement, opt Options) LayerBreakdown {
	lb := LayerBreakdown{Name: spec.Name, Kind: spec.Kind}
	grid := pl.Grid
	act := ConvSpec{N: n, C: in.C, H: in.H, W: in.W}
	pc := grid.ChannelWays()
	cl := dist.BlockPartition(in.C, pc, 0).Len()
	switch spec.Kind {
	case nn.KindConv:
		cs := act
		cs.F, cs.Geom = spec.F, spec.Geom
		lb.Cost = m.ConvPlacedCost(cs, pl, opt.OverlapHalo)
	case nn.KindMaxPool:
		cs := act
		cs.F, cs.Geom = in.C, spec.Geom
		lb.Cost = m.PoolLayerCost(cs, grid, opt.OverlapHalo)
	case nn.KindBatchNorm:
		if opt.CountElementwise {
			lb.Elem = m.ElementwiseCost(act, grid, 4) // stats+normalize fwd, stats+apply bwd
			// Learnable parameters: allreduce of this rank's 2·C/PC words
			// over the ranks holding the same channel block (Section V-B).
			lb.Cost.BPa = m.Allreduce(2*cl, grid.Size()/pc, grid.Size() > m.GPUsPerNode)
		}
	case nn.KindReLU, nn.KindAdd:
		if opt.CountElementwise {
			lb.Elem = m.ElementwiseCost(act, grid, 2)
		}
	case nn.KindGlobalAvgPool:
		lb.Elem = m.ElementwiseCost(act, grid, 2)
		// Spatial-group reduction of the channel means.
		sp := grid.SpatialWays()
		lb.Cost.FP = m.Allreduce((n/grid.PN)*cl, sp, sp > m.GPUsPerNode)
	case nn.KindInput:
		// free
	}
	return lb
}

// ShuffleCost prices the data redistribution between distributions of the
// same tensor on adjacent layers (Section III-C / V-B): zero when layouts
// coincide, otherwise an all-to-all moving the largest rank's share, twice
// (forward activations and backward error signals). Only the grids matter —
// the weight split does not change the activation layout.
func (m Machine) ShuffleCost(sh nn.Shape, n int, from, to dist.Grid) float64 {
	if from.Norm() == to.Norm() {
		return 0
	}
	src := dist.Dist{Grid: from, N: n, C: sh.C, H: sh.H, W: sh.W}
	dst := dist.Dist{Grid: to, N: n, C: sh.C, H: sh.H, W: sh.W}
	if src.Validate() != nil || dst.Validate() != nil {
		return infeasible
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

// infeasible is the cost of a redistribution between layouts the tensor
// cannot take.
const infeasible = 1e30

// Evaluate is the whole-CNN model of Section V-B for any per-layer
// placement (pls[i] places arch.Specs[i]); n is the global mini-batch
// size. Each layer is priced by PlacedLayerCost, plus the redistributions
// from its parents' layouts, charged half to forward and half to backward
// propagation. Weight-gradient allreduces then hide greedily behind the
// backward compute of earlier layers. MemoryBytes is left zero: the memory
// estimate needs one grid for the whole network (see CNNCost).
func Evaluate(m Machine, arch *nn.Arch, pls []dist.Placement, n int, opt Options) (NetCost, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return NetCost{}, err
	}
	if len(pls) != len(arch.Specs) {
		return NetCost{}, fmt.Errorf("perfmodel: %d placements for %d layers", len(pls), len(arch.Specs))
	}
	var out NetCost
	out.PerLayer = make([]LayerBreakdown, 0, len(arch.Specs))
	bpCompute := make([]float64, 0, len(arch.Specs))
	for i, s := range arch.Specs {
		pl := pls[i]
		if n < pl.Grid.PN {
			return NetCost{}, fmt.Errorf("perfmodel: batch %d smaller than sample ways %d", n, pl.Grid.PN)
		}
		in := shapes[i]
		if len(s.Parents) > 0 {
			in = shapes[s.Parents[0]]
		}
		lb := m.PlacedLayerCost(s, in, n, pl, opt)
		shuffle := 0.0
		for _, par := range s.Parents {
			shuffle += m.ShuffleCost(in, n, pls[par].Grid, pl.Grid)
		}
		out.FPTime += lb.Cost.FP + lb.Elem/2 + shuffle/2
		bpCompute = append(bpCompute, lb.Cost.BPx+lb.Cost.BPw+lb.Elem/2+shuffle/2)
		out.PerLayer = append(out.PerLayer, lb)
	}

	// Backward pass with greedy allreduce overlap (Section V-B): walk layers
	// in reverse; a layer's allreduce starts after its backward compute and
	// hides behind the backward compute of the layers before it (only one
	// allreduce in flight at a time).
	if opt.OverlapAllreduce {
		pending := 0.0
		for i := len(bpCompute) - 1; i >= 0; i-- {
			c := bpCompute[i]
			hidden := pending
			if hidden > c {
				hidden = c
			}
			pending -= hidden
			out.BPTime += c
			pending += out.PerLayer[i].Cost.BPa
		}
		out.ARExposed = pending
	} else {
		for i, c := range bpCompute {
			out.BPTime += c
			out.ARExposed += out.PerLayer[i].Cost.BPa
		}
	}
	out.MiniBatchTime = out.FPTime + out.BPTime + out.ARExposed
	return out, nil
}

// CNNCost evaluates the performance model for an entire architecture under
// a uniform decomposition (the same grid for every layer, as in the paper's
// evaluation). n is the global mini-batch size.
func CNNCost(m Machine, arch *nn.Arch, grid dist.Grid, n int, opt Options) (NetCost, error) {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(grid)
	}
	out, err := Evaluate(m, arch, pls, n, opt)
	if err != nil {
		return NetCost{}, err
	}
	out.MemoryBytes = MemoryBytes(arch, grid, n)
	return out, nil
}

// MemoryBytes estimates peak per-GPU memory for training: stored activations
// plus error signals (2x activations), parameters with gradients and
// momentum (3x), halo-extended input copies for the largest layer, and a
// fixed workspace. This drives the feasibility constraints of Section VI
// (the 2K mesh model exceeds a 16 GB V100 even at one sample per GPU).
func MemoryBytes(arch *nn.Arch, grid dist.Grid, n int) float64 {
	shapes, err := arch.Shapes()
	if err != nil {
		return 0
	}
	nl := dist.BlockPartition(n, grid.PN, 0).Len()
	var act, params float64
	for i, s := range arch.Specs {
		sh := shapes[i]
		hl := dist.BlockPartition(sh.H, grid.PH, 0).Len()
		wl := dist.BlockPartition(sh.W, grid.PW, 0).Len()
		act += 4 * float64(nl) * float64(sh.C) * float64(hl) * float64(wl)
		if s.Kind == nn.KindConv {
			in := shapes[s.Parents[0]]
			params += 4 * float64(s.F) * float64(in.C) * float64(s.Geom.K) * float64(s.Geom.K)
		}
		if s.Kind == nn.KindBatchNorm {
			params += 4 * 2 * float64(sh.C)
		}
	}
	const workspace = 256e6 // cuDNN-style workspace reservation
	return 2*act + 3*params + workspace
}

// Feasible reports whether the decomposition fits in GPU memory.
func Feasible(m Machine, arch *nn.Arch, grid dist.Grid, n int) bool {
	if n < grid.PN {
		return false
	}
	shapes, err := arch.Shapes()
	if err != nil {
		return false
	}
	for _, sh := range shapes {
		if sh.H < grid.PH || sh.W < grid.PW {
			// A layer becomes too small to split spatially; GlobalAvgPool
			// outputs are exempt (replicated), detected by H==1.
			if sh.H != 1 {
				return false
			}
		}
	}
	return MemoryBytes(arch, grid, n) <= m.GPUMemBytes
}
