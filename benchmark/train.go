package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainSpec is one training workload: the task (architecture, batch, data,
// loss, optimizer) and how it is laid out on 2 ranks and on the 1-rank
// baseline. Everything is a literal so that no other package can change
// what the workload runs.
type trainSpec struct {
	name  string
	arch  *nn.Arch
	batch int
	// steps is the measured part of one round: a fixed amount of work, about
	// 4 s on the box the benchmark was defined on.
	steps int
	lr    float32
	wd    float32
	// grid lays every layer of a DistNet out the same way; placements
	// (when set) gives each layer of a StrategyNet its own.
	grid       dist.Grid
	placements []dist.Placement
	// gen makes the global input and the labels from the seed: per-pixel
	// labels for a segmentation loss, per-sample ones for classification.
	gen func(seed int64) (x *tensor.Tensor, seg []int32, cls []int)
	// The 2-rank loss at step agreeStep must be within agreeTol (relative)
	// of the 1-rank baseline's.
	agreeStep int
	agreeTol  float64
}

func meshSpatial() trainSpec {
	arch := models.MeshTiny(192)
	out, _ := arch.Output()
	return trainSpec{
		name: "mesh_spatial", arch: arch, batch: 1, steps: 32, lr: 0.05, wd: 1e-4,
		grid: dist.Grid{PN: 1, PH: 2, PW: 1}, agreeStep: 1, agreeTol: 1e-3,
		gen: func(seed int64) (*tensor.Tensor, []int32, []int) {
			x, l := data.MeshBatch(data.MeshConfig{Size: 192, Channels: 4, OutSize: out.H}, 1, seed)
			return x, l, nil
		},
	}
}

func resnetSample() trainSpec {
	return trainSpec{
		name: "resnet_sample", arch: models.ResNet50Tiny(16, 10), batch: 2, steps: 24, lr: 0.01, wd: 1e-4,
		grid: dist.Grid{PN: 2, PH: 1, PW: 1},
		// Batch norm over one sample per rank at 1x1 spatial is
		// ill-conditioned (variance of two near-equal values): the first
		// forward already differs by up to 8% between decompositions (seeds
		// 1-8), so only gross disagreement is a failure here.
		agreeStep: 0, agreeTol: 0.5,
		gen: func(seed int64) (*tensor.Tensor, []int32, []int) {
			x, l := data.ClassBatch(16, 3, 10, 2, seed)
			return x, nil, l
		},
	}
}

// fcHeavyArch is six 512->512 1x1 convs with ReLUs on a 2x2 domain and a
// 4-class 1x1 predictor: weights dwarf activations, the regime the
// placement engine exists for.
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

// fcHeavyPlacements: input and pred sample-parallel, fc0-fc2 (and their
// ReLUs) channel-parallel, fc3-fc5 filter-parallel. Two placement
// boundaries (input->fc0, r5->pred) shuffle; fc2->fc3 changes only the
// weight split.
func fcHeavyPlacements(arch *nn.Arch) []dist.Placement {
	sample := dist.P(dist.Grid{PN: 2, PH: 1, PW: 1})
	pc := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	pls := make([]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		switch {
		case i == 0 || s.Name == "pred":
			pls[i] = sample
		case s.Kind != nn.KindConv:
			pls[i] = dist.P(pc)
		case i <= 6: // fc0..fc2 sit at specs 1, 3, 5
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitChannel}
		default:
			pls[i] = dist.Placement{Grid: pc, Split: dist.SplitFilter}
		}
	}
	return pls
}

func fcHeavyPlaced() trainSpec {
	arch := fcHeavyArch()
	return trainSpec{
		name: "fcheavy_placed", arch: arch, batch: 4, steps: 48, lr: 0.01, wd: 0,
		placements: fcHeavyPlacements(arch), agreeStep: 1, agreeTol: 1e-3,
		gen: func(seed int64) (*tensor.Tensor, []int32, []int) {
			x := tensor.New(4, 512, 2, 2)
			x.FillRandN(seed, 1)
			rng := rand.New(rand.NewSource(seed))
			l := make([]int32, 4*2*2)
			for i := range l {
				l[i] = int32(rng.Intn(4))
			}
			return x, l, nil
		},
	}
}

// rankNet is what the step loop needs from nn.DistNet and nn.StrategyNet.
type rankNet struct {
	forward  func(core.DistTensor) core.DistTensor
	backward func(core.DistTensor)
	params   func() []nn.Param
	in, out  dist.Dist
	lossCtx  *core.Ctx
}

// build makes this rank's net on a world of ranks ranks: the workload's own
// layout at 2, everything on one rank at 1.
func (s trainSpec) build(c *comm.Comm, ranks int, seed int64, grad nn.GradMode) (rankNet, error) {
	one := dist.Grid{PN: 1, PH: 1, PW: 1}
	if s.placements != nil {
		pls := s.placements
		if ranks == 1 {
			pls = make([]dist.Placement, len(s.placements))
			for i := range pls {
				pls[i] = dist.P(one)
			}
		}
		net, err := nn.NewStrategyNet(core.NewCtx(c, pls[0].Grid), s.arch, s.batch, seed, pls)
		if err != nil {
			return rankNet{}, err
		}
		return rankNet{net.Forward, net.Backward, net.Params, net.InputDist(), net.OutputDist(), net.OutputCtx()}, nil
	}
	g := s.grid
	if ranks == 1 {
		g = one
	}
	ctx := core.NewCtx(c, g)
	net, err := nn.NewDistNet(ctx, s.arch, s.batch, seed)
	if err != nil {
		return rankNet{}, err
	}
	net.Grad = grad
	return rankNet{net.Forward, func(d core.DistTensor) { net.Backward(d) }, net.Params, net.InputDist(), net.OutputDist(), ctx}, nil
}

// trainRun is what one build-warm-measure pass over a training workload
// observed. Times are on rank 0's clock, barrier to barrier.
type trainRun struct {
	setupS float64
	stepMs []float64 // measured steps only
	wallS  float64
	mem    memDelta
	losses []float64 // every step, warm-up included
	skewMs []float64 // per measured step: last rank's arrival minus first's
	err    error
}

// phase names of one step, in order; the harness spans around the calls
// into nn carry them.
var stepPhases = [...]string{"nn.forward", "nn.loss", "nn.backward", "nn.sgd"}

// runTrain builds the workload from scratch on a fresh world, runs warm
// steps, then measures steps more. With sp non-nil every rank records spans
// around its calls into nn.
func runTrain(s trainSpec, ranks int, seed int64, grad nn.GradMode, warm, steps int, sp *spanLog, onMeasure func()) trainRun {
	var res trainRun
	t0 := time.Now()
	x, seg, cls := s.gen(seed)

	arrive := make([][]int64, ranks)
	var buildErr atomic.Value

	world := comm.NewWorld(ranks)
	world.Run(func(c *comm.Comm) {
		rank := c.Rank()
		net, err := s.build(c, ranks, seed, grad)
		if err != nil {
			buildErr.Store(err)
			return
		}
		xs := core.Scatter(x, net.in)
		var segL [][]int32
		var clsL [][]int
		if seg != nil {
			segL = nn.ScatterLabels(seg, net.out)
		} else {
			clsL = nn.ScatterSampleLabels(cls, net.out)
		}
		opt := nn.NewSGD(s.lr, 0.9, s.wd)
		step := func(op int) float64 {
			t := sp.now()
			logits := net.forward(xs[rank])
			t = sp.add(rank, op, stepPhases[0], t)
			var loss float64
			var dl core.DistTensor
			if seg != nil {
				loss, dl = nn.DistSegLoss(net.lossCtx, logits, segL[rank])
			} else {
				loss, dl = nn.DistClsLoss(net.lossCtx, logits, clsL[rank])
			}
			t = sp.add(rank, op, stepPhases[1], t)
			net.backward(dl)
			t = sp.add(rank, op, stepPhases[2], t)
			opt.Step(net.params())
			sp.add(rank, op, stepPhases[3], t)
			return loss
		}
		for i := 0; i < warm; i++ {
			loss := step(-1)
			if rank == 0 {
				res.losses = append(res.losses, loss)
			}
		}
		c.Barrier()
		var before runtime.MemStats
		if rank == 0 {
			res.setupS = time.Since(t0).Seconds()
			if onMeasure != nil {
				onMeasure()
			}
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		start := time.Now()
		last := start
		for k := 0; k < steps; k++ {
			loss := step(k)
			arrive[rank] = append(arrive[rank], time.Now().UnixNano())
			c.Barrier()
			if rank == 0 {
				now := time.Now()
				res.stepMs = append(res.stepMs, float64(now.Sub(last).Nanoseconds())/1e6)
				sp.span(0, k, "step", last.UnixNano(), now.UnixNano())
				last = now
				res.losses = append(res.losses, loss)
			}
		}
		if rank == 0 {
			res.wallS = time.Since(start).Seconds()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			res.mem = memBetween(&before, &after)
		}
	})
	if err, _ := buildErr.Load().(error); err != nil {
		res.err = err
		return res
	}
	for k := range res.stepMs {
		lo, hi := int64(math.MaxInt64), int64(0)
		for r := range arrive {
			lo, hi = min(lo, arrive[r][k]), max(hi, arrive[r][k])
		}
		res.skewMs = append(res.skewMs, float64(hi-lo)/1e6)
	}
	return res
}

// memDelta is what runtime.MemStats says a measured section cost.
type memDelta struct {
	mallocs    float64
	allocKB    float64
	gcPauseMs  float64
	heapInuseM float64
}

func memBetween(before, after *runtime.MemStats) memDelta {
	return memDelta{
		mallocs:    float64(after.Mallocs - before.Mallocs),
		allocKB:    float64(after.TotalAlloc-before.TotalAlloc) / 1024,
		gcPauseMs:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		heapInuseM: float64(after.HeapInuse) / (1 << 20),
	}
}

// halvingSteps is how many steps a run needs before "the loss halved" is a
// fair demand.
const halvingSteps = 20

// checkLosses is the training correctness gate: every loss finite, and (once
// halvingSteps steps ran) the last below half the first: the task is being
// learned, not just timed.
func checkLosses(losses []float64) error {
	if len(losses) == 0 {
		return fmt.Errorf("no steps ran")
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("loss at step %d is %v", i, l)
		}
	}
	first, last := losses[0], losses[len(losses)-1]
	if len(losses) >= halvingSteps && !(last < first/2) {
		return fmt.Errorf("loss did not halve: first %.6g, last (step %d) %.6g", first, len(losses)-1, last)
	}
	return nil
}

// checkLossAgreement holds the 2-rank run to the 1-rank baseline of the
// same task at step k: the decompositions are exact up to floating-point
// accumulation order. An early step, because training amplifies rounding
// differences tenfold per step (1e-7 at step 2, 1e-2 at step 9 on
// mesh_spatial).
func checkLossAgreement(two, one []float64, k int, tol float64) error {
	if k >= len(one) || k >= len(two) {
		return fmt.Errorf("step %d not reached (1-rank ran %d, 2-rank %d)", k, len(one), len(two))
	}
	if d := math.Abs(two[k]-one[k]) / math.Abs(one[k]); !(d <= tol) {
		return fmt.Errorf("step %d: 2-rank loss %.8g vs 1-rank %.8g (rel diff %.3g > %g)", k, two[k], one[k], d, tol)
	}
	return nil
}
