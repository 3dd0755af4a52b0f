package main

import (
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// A probe is a timed call from here into a layer's exported functions at the
// shapes the workload uses: one warm call, then the median of iters calls.

func timeMs(iters int, fn func()) float64 {
	fn()
	ts := make([]float64, iters)
	for i := range ts {
		t := time.Now()
		fn()
		ts[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	return median(ts)
}

// timePairMs is timeMs for a forward/backward pair: a layer's Backward
// consumes what its Forward stashed, so the two alternate and are clocked
// apart.
func timePairMs(iters int, fwd, bwd func()) (f, b float64) {
	fwd()
	bwd()
	fs, bs := make([]float64, iters), make([]float64, iters)
	for i := range fs {
		t0 := time.Now()
		fwd()
		t1 := time.Now()
		bwd()
		fs[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		bs[i] = float64(time.Since(t1).Nanoseconds()) / 1e6
	}
	return median(fs), median(bs)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func randTensor(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillRandN(seed, 1)
	return t
}

// localLayer is one layer of a training workload as rank 0 sees it.
type localLayer struct {
	spec   nn.Spec
	pl     dist.Placement
	in     dist.Dist // the layer's input under its own grid
	n, c   int       // local input batch and channels
	h, w   int       // local input extent
	f      int       // conv: local filters
	oh, ow int       // local output extent
}

// localLayers walks the architecture with the workload's layout and gives
// every layer's per-rank shapes.
func (s trainSpec) localLayers() []localLayer {
	shapes, _ := s.arch.Shapes()
	var out []localLayer
	for i, sp := range s.arch.Specs {
		if sp.Kind == nn.KindInput {
			continue
		}
		pl := dist.P(s.grid)
		if s.placements != nil {
			pl = s.placements[i]
		}
		pl = pl.Norm()
		inSh, outSh := shapes[sp.Parents[0]], shapes[i]
		in := dist.Dist{Grid: pl.Grid, N: s.batch, C: inSh.C, H: inSh.H, W: inSh.W}
		li, lo := in.LocalShape(0), dist.Dist{Grid: pl.Grid, N: s.batch, C: outSh.C, H: outSh.H, W: outSh.W}.LocalShape(0)
		l := localLayer{spec: sp, pl: pl, in: in, n: li[0], c: li[1], h: li[2], w: li[3], f: sp.F, oh: lo[2], ow: lo[3]}
		if sp.Kind == nn.KindConv {
			switch pl.Split {
			case dist.SplitFilter: // every rank sees all input channels, computes its filter block
				l.c, l.f = inSh.C, sp.F/pl.Grid.PC
			case dist.SplitChannel: // its channel block, all filters
				l.f = sp.F
			}
		}
		out = append(out, l)
	}
	return out
}

// kernelProbes times the single-thread kernels under a training workload's
// layers at rank 0's local shapes. Flops are computed from the shapes.
func kernelProbes(s trainSpec, iters int, vals map[string]float64) {
	var fwd, bwdD, bwdF, elem, flops float64
	calls := 0
	m0 := mallocs()
	timed := func(fn func()) float64 { calls += iters + 1; return timeMs(iters, fn) }
	for i, l := range s.localLayers() {
		seed := int64(i)
		x := randTensor(seed, l.n, l.c, l.h, l.w)
		switch l.spec.Kind {
		case nn.KindConv:
			g := l.spec.Geom
			// A spatial shard convolves its halo-extended input; the padded
			// local shape is the same amount of work.
			oh, ow := g.OutSize(l.h), g.OutSize(l.w)
			w := randTensor(seed+1, l.f, l.c, g.K, g.K)
			y := tensor.New(l.n, l.f, oh, ow)
			dy := randTensor(seed+2, l.n, l.f, oh, ow)
			dx := tensor.New(l.n, l.c, l.h, l.w)
			dw := tensor.New(l.f, l.c, g.K, g.K)
			fwd += timed(func() { kernels.ConvForward(x, w, nil, y, g.S, g.Pad, kernels.ConvAuto) })
			bwdD += timed(func() { kernels.ConvBackwardDataRegion(dy, w, dx, g.S, g.Pad, 0, 0, 0, 0) })
			bwdF += timed(func() { kernels.ConvBackwardFilter(x, dy, dw, g.S, g.Pad, false) })
			flops += 2 * float64(l.n*l.f*l.c*g.K*g.K*oh*ow)
		case nn.KindBatchNorm:
			c := l.c
			sum, sumsq := make([]float32, c), make([]float32, c)
			mean, invstd := make([]float32, c), make([]float32, c)
			gamma, beta := make([]float32, c), make([]float32, c)
			dgamma, dbeta := make([]float32, c), make([]float32, c)
			for j := range gamma {
				gamma[j] = 1
			}
			y, dx := tensor.New(l.n, c, l.h, l.w), tensor.New(l.n, c, l.h, l.w)
			dy := randTensor(seed+2, l.n, c, l.h, l.w)
			count := l.n * l.h * l.w
			elem += timed(func() {
				kernels.BatchNormStats(x, sum, sumsq)
				kernels.BatchNormMoments(sum, sumsq, count, 1e-5, mean, invstd)
				kernels.BatchNormForward(x, mean, invstd, gamma, beta, y)
			})
			elem += timed(func() {
				kernels.BatchNormBackwardStats(x, dy, mean, invstd, dgamma, dbeta)
				kernels.BatchNormBackwardData(x, dy, mean, invstd, gamma, dgamma, dbeta, count, dx)
			})
		case nn.KindReLU:
			y, dx := tensor.New(l.n, l.c, l.h, l.w), tensor.New(l.n, l.c, l.h, l.w)
			elem += timed(func() { kernels.ReLUForward(x, y) })
			elem += timed(func() { kernels.ReLUBackward(x, y, dx) })
		case nn.KindMaxPool:
			g := l.spec.Geom
			y := tensor.New(l.n, l.c, g.OutSize(l.h), g.OutSize(l.w))
			arg := make([]int32, y.Size())
			dx := tensor.New(l.n, l.c, l.h, l.w)
			elem += timed(func() { kernels.MaxPoolForward(x, y, g.K, g.S, g.Pad, arg) })
			elem += timed(func() { kernels.MaxPoolBackward(y, arg, dx) })
		case nn.KindGlobalAvgPool:
			y := tensor.New(l.n, l.c, 1, 1)
			elem += timed(func() { kernels.GlobalAvgPoolForward(x, y) })
		case nn.KindAdd:
			y := tensor.New(l.n, l.c, l.h, l.w)
			elem += timed(func() { kernels.Add(x, x, y) })
		}
	}
	vals["kernels.allocs_per_call"] = float64(mallocs()-m0) / float64(calls)
	vals["kernels.conv_fwd_ms"] = fwd
	vals["kernels.conv_bwd_data_ms"] = bwdD
	vals["kernels.conv_bwd_filter_ms"] = bwdF
	vals["kernels.elementwise_ms"] = elem
	vals["kernels.conv_fwd_gflops"] = flops / fwd / 1e6
	vals["kernels.conv_bwd_data_gflops"] = flops / bwdD / 1e6
	vals["kernels.conv_bwd_filter_gflops"] = flops / bwdF / 1e6
	vals["kernels.bwd_over_fwd"] = (bwdD + bwdF) / fwd
	vals["kernels.step_gflop"] = 3 * flops * 2 / 1e9 // forward + two backward passes, 2 ranks
}

// coreLayerTimes probes every replicated-weight conv and every batch-norm
// layer of the workload alone, on a world of ranks ranks laid out by grid,
// and returns rank 0's summed medians. On one rank every layer runs at rank
// 0's shard shape: the same local work with nobody to exchange halos with.
func coreLayerTimes(s trainSpec, ranks int, iters int) (convFwd, convBwd, bnFwd, bnBwd float64) {
	world := comm.NewWorld(ranks)
	world.Run(func(c *comm.Comm) {
		ctxs := map[dist.Grid]*core.Ctx{}
		for i, l := range s.localLayers() {
			if l.pl.Split != dist.SplitNone {
				continue
			}
			in := l.in
			if ranks == 1 {
				in = dist.Dist{Grid: dist.Grid{PN: 1, PC: 1, PH: 1, PW: 1}, N: l.n, C: l.c, H: l.h, W: l.w}
			}
			ctx := ctxs[in.Grid]
			if ctx == nil {
				ctx = core.NewCtxAt(c, in.Grid, len(ctxs)*4096)
				ctxs[in.Grid] = ctx
			}
			x := core.NewDistTensor(in, ctx.Rank)
			x.Local.FillRandN(int64(i), 1)
			switch l.spec.Kind {
			case nn.KindConv:
				cv := core.NewConv(ctx, in, l.spec.F, l.spec.Geom, l.spec.Bias)
				cv.W.FillRandN(int64(i)+1, 0.05)
				cv.DeferAllreduce = true
				dy := core.NewDistTensor(cv.OutDist, ctx.Rank)
				dy.Local.FillRandN(int64(i)+2, 1)
				f, b := timePairMs(iters, func() { cv.Forward(ctx, x) }, func() { cv.Backward(ctx, dy) })
				if ctx.Rank == 0 {
					convFwd, convBwd = convFwd+f, convBwd+b
				}
			case nn.KindBatchNorm:
				bn := core.NewBatchNorm(ctx, in, core.BatchNormGlobal)
				dy := core.NewDistTensor(in, ctx.Rank)
				dy.Local.FillRandN(int64(i)+2, 1)
				f, b := timePairMs(iters, func() { bn.Forward(ctx, x) }, func() { bn.Backward(ctx, dy) })
				if ctx.Rank == 0 {
					bnFwd, bnBwd = bnFwd+f, bnBwd+b
				}
			}
		}
	})
	return
}

// placementProbes times the placement engine's own layers at the
// fcheavy_placed shapes: one channel-parallel and one filter-parallel
// 512->512 1x1 conv, and the shuffles across the workload's two placement
// boundaries, forward and back.
func placementProbes(s trainSpec, iters int, vals map[string]float64) {
	var chanL, filtL, first, last localLayer
	layers := s.localLayers()
	first, last = layers[0], layers[len(layers)-1]
	for _, l := range layers {
		switch {
		case l.spec.Kind != nn.KindConv:
		case l.pl.Split == dist.SplitChannel:
			chanL = l
		case l.pl.Split == dist.SplitFilter:
			filtL = l
		}
	}
	// The boundaries: the sample-parallel input enters fc0's channel grid,
	// and r5's channel-partitioned output enters the sample-parallel pred.
	inSample := first.in
	inSample.Grid = s.placements[0].Grid.Norm()
	outChan := last.in
	outChan.Grid = layers[len(layers)-2].pl.Grid
	world := comm.NewWorld(2)
	world.Run(func(c *comm.Comm) {
		cc := core.NewCtx(c, chanL.pl.Grid)
		x := core.NewDistTensor(chanL.in, cc.Rank)
		x.Local.FillRandN(1, 1)
		ch := core.NewChannelParallelConv(cc, chanL.in, chanL.spec.F, chanL.spec.Geom, false)
		ch.W.FillRandN(2, 0.05)
		fl := core.NewFilterParallelConv(cc, filtL.in, filtL.spec.F, filtL.spec.Geom, false)
		fl.W.FillRandN(3, 0.05)
		dyC := core.NewDistTensor(ch.Forward(cc, x).Dist, cc.Rank)
		dyC.Local.FillRandN(4, 1)
		dyF := core.NewDistTensor(fl.Forward(cc, x).Dist, cc.Rank)
		dyF.Local.FillRandN(5, 1)
		var t [4]float64
		t[0], t[1] = timePairMs(iters, func() { ch.Forward(cc, x) }, func() { ch.Backward(cc, dyC) })
		t[2], t[3] = timePairMs(iters, func() { fl.Forward(cc, x) }, func() { fl.Backward(cc, dyF) })
		a := core.NewDistTensor(inSample, cc.Rank)
		b := core.NewDistTensor(outChan, cc.Rank)
		rd := timeMs(iters, func() {
			a2 := core.Redistribute(cc, a, first.in)
			core.Redistribute(cc, a2, inSample)
			b2 := core.Redistribute(cc, b, last.in)
			core.Redistribute(cc, b2, outChan)
		})
		if cc.Rank == 0 {
			vals["core.chanconv_fwd_ms"], vals["core.chanconv_bwd_ms"] = t[0], t[1]
			vals["core.filterconv_fwd_ms"], vals["core.filterconv_bwd_ms"] = t[2], t[3]
			vals["core.redistribute_ms"] = rd
		}
	})
	words := 0
	for r := 0; r < 2; r++ {
		words += core.ShuffleVolume(inSample, first.in, r) + core.ShuffleVolume(first.in, inSample, r) +
			core.ShuffleVolume(outChan, last.in, r) + core.ShuffleVolume(last.in, outChan, r)
	}
	vals["core.redistribute_kb_per_step"] = float64(words) * 4 / 1024
}

// commProbes times the substrate's primitives on a 2-rank world, rank 0's
// clock.
func commProbes(iters int, vals map[string]float64) {
	const small, gather, large = 1 << 10, 8 << 10, 8 << 20
	n := 20 * iters // the small probes are microseconds each
	world := comm.NewWorld(2)
	world.Run(func(c *comm.Comm) {
		me := c.Rank()
		us := func(n int, fn func()) float64 {
			c.Barrier()
			return 1e3 * timeMs(n, fn)
		}
		one := make([]float32, 1)
		sbuf, gbuf := make([]float32, small), make([]float32, gather)
		m0 := mallocs()
		pp := us(n, func() {
			if me == 0 {
				c.Send(1, 1, one)
				c.Release(c.Recv(1, 2))
			} else {
				c.Release(c.Recv(0, 1))
				c.Send(0, 2, one)
			}
		})
		bar := us(n, c.Barrier)
		ars := us(n, func() { c.Allreduce(sbuf, comm.OpSum) })
		ag := us(n, func() { c.Allgather(gbuf, gather/2, 0) })
		allocs := mallocs() - m0
		// Launch cost only: the wait for completion is outside the clock.
		launch := make([]float64, n)
		for i := range launch {
			t := time.Now()
			req := c.IAllreduce(sbuf, comm.OpSum)
			launch[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			req.Wait()
		}
		lbuf := make([]float32, large)
		arl := us(iters, func() { c.AllreduceAlgo(lbuf, comm.OpSum, comm.AllreduceStableRing) })
		if me == 0 {
			vals["comm.pingpong_us"], vals["comm.barrier_us"] = pp, bar
			vals["comm.allreduce_small_us"], vals["comm.allgather_us"] = ars, ag
			vals["comm.iallreduce_launch_us"] = median(launch)
			vals["comm.allreduce_large_gbps"] = float64(large) * 4 / (arl * 1e-6) / 1e9
			vals["comm.allocs_per_call"] = float64(allocs) / float64(4*(n+1))
		}
	})
}

// machineProbes are the fixed-shape probes every traced run takes, whatever
// the workload: the GEMM anchor, the scheduler, the simulator, the planner
// and the region copies.
func machineProbes(seed int64, iters int, vals map[string]float64) {
	defer kernels.SetMaxWorkers(kernels.SetMaxWorkers(1))
	const n = 512
	a, b, c := randTensor(1, n, n).Data(), randTensor(2, n, n).Data(), make([]float32, n*n)
	pb := kernels.PackB(n, n, b, false)
	gf := func(ms float64) float64 { return 2 * n * n * n / ms / 1e6 }
	vals["kernels.gemm_gflops_512"] = gf(timeMs(iters, func() { kernels.GemmNN(n, n, n, 1, a, b, 0, c) }))
	vals["kernels.gemm_prepacked_gflops_512"] = gf(timeMs(iters, func() { kernels.GemmNNPrepacked(n, n, n, 1, a, pb, 0, c) }))

	pol := sched.NewLeastLoaded()
	pol.Reset(2, seed)
	views := []sched.ReplicaView{{Live: true, InFlight: 1, Cap: 2, Occ: 1}, {Live: true, InFlight: 0, Cap: 2}}
	const picks = 1 << 16
	vals["sched.pick_ns"] = 1e6 * timeMs(iters, func() {
		for i := 0; i < picks; i++ {
			views[i&1].InFlight ^= 1
			pol.Pick(int64(i), sched.BatchView{N: 4}, views)
		}
	}) / picks

	// The serve_routed fleet shape in the simulator: two 1-rank replicas,
	// MaxBatch 8, tens of microseconds per batch, 20 000 req/s for 10
	// simulated seconds.
	t := time.Now()
	sw, err := sim.NewWorld(sim.Config{
		Seed: seed, Groups: []int{1, 1},
		Curves:   []*sim.Curve{sim.UniformCurve(8, 20_000, 5_000), sim.UniformCurve(8, 20_000, 5_000)},
		MaxBatch: 8, BatchDeadline: 100_000, Policy: sched.NewLeastLoaded(),
		Traffic: sim.Traffic{Rate: 20_000}, Duration: 10e9,
	})
	if err == nil {
		sw.Run()
		vals["sim.sim_req_per_s"] = float64(sw.Scorecard().Offered) / time.Since(t).Seconds()
	}

	t = time.Now() // one cold call, as a planner-driven run would make it
	_, _ = strategy.Optimize(perfmodel.Lassen(), models.ResNet50(224, 1000), 16, 32)
	vals["strategy.optimize_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	if st, err := strategy.Optimize(perfmodel.Lassen(), fcHeavyArch(), 2, 4); err == nil {
		vals["strategy.placement_stable"] = 1
		for i, pl := range st.Placements {
			if pl.Norm() != recordedFCHeavyPlan[i] {
				vals["strategy.placement_stable"] = 0
			}
		}
	}

	// A halo-shaped strip: 2 rows of a 16-channel 96x192 shard.
	sh := tensor.New(1, 16, 96, 192)
	strip := tensor.Region{Off: []int{0, 0, 94, 0}, Size: []int{1, 16, 2, 192}}
	buf := make([]float32, strip.NumElems())
	const copies = 1 << 10
	ms := timeMs(iters, func() {
		for i := 0; i < copies; i++ {
			sh.ExtractRegionInto(strip, buf)
			sh.InsertRegion(strip, buf)
		}
	})
	vals["tensor.region_copy_gbps"] = 2 * copies * float64(len(buf)) * 4 / (ms * 1e-3) / 1e9
}

// recordedFCHeavyPlan is what strategy.Optimize(perfmodel.Lassen(), fcheavy,
// p=2, n=4) returned when this benchmark was defined: the input
// sample-parallel, every layer on the channel grid, convolutions
// channel-split.
var recordedFCHeavyPlan = func() []dist.Placement {
	arch := fcHeavyArch()
	pc := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	pls := make([]dist.Placement, len(arch.Specs))
	for i, s := range arch.Specs {
		pls[i] = dist.P(pc)
		if s.Kind == nn.KindConv {
			pls[i].Split = dist.SplitChannel
		}
	}
	pls[0] = dist.P(dist.Grid{PN: 2, PC: 1, PH: 1, PW: 1})
	return pls
}()

// inferProbes times the inference engines a serving workload's replicas
// run, and the prepacked conv kernel under them.
func inferProbes(s serveSpec, seed int64, iters int, vals map[string]float64) error {
	m, err := s.model(seed)
	if err != nil {
		return err
	}
	in := s.arch.In
	x1, xm := randTensor(seed, 1, in.C, in.H, in.W), randTensor(seed, s.maxBatch, in.C, in.H, in.W)
	vals["nn.infer_forward_ms_b1"] = timeMs(iters, func() { m.Forward(x1) })
	vals["nn.infer_forward_ms_bmax"] = timeMs(iters, func() { m.Forward(xm) })

	if ranks := s.groups[0]; ranks > 1 {
		var buildErr error
		world := comm.NewWorld(ranks)
		world.Run(func(c *comm.Comm) {
			dn, err := nn.NewDistInferNet(c, s.arch, s.maxBatch, nn.ShardedPlacements(s.arch, ranks, dist.SplitFilter))
			if err != nil {
				buildErr = err
				return
			}
			l2 := timeMs(iters, func() { dn.Forward(xm, 2) })
			lm := timeMs(iters, func() { dn.Forward(xm, s.maxBatch) })
			if c.Rank() == 0 {
				vals["nn.distinfer_forward_ms_live2"], vals["nn.distinfer_forward_ms_livemax"] = l2, lm
			}
		})
		if buildErr != nil {
			return buildErr
		}
	}

	// The model's heaviest conv, batch = MaxBatch, with the BN+ReLU epilogue.
	shapes, _ := s.arch.Shapes()
	var best nn.Spec
	var bestIn nn.Shape
	var bestFlops float64
	for i, sp := range s.arch.Specs {
		if sp.Kind != nn.KindConv {
			continue
		}
		ish, osh := shapes[sp.Parents[0]], shapes[i]
		if fl := 2 * float64(s.maxBatch*sp.F*ish.C*sp.Geom.K*sp.Geom.K*osh.H*osh.W); fl > bestFlops {
			best, bestIn, bestFlops = sp, ish, fl
		}
	}
	g := best.Geom
	w := randTensor(seed, best.F, bestIn.C, g.K, g.K)
	ones := make([]float32, best.F)
	for i := range ones {
		ones[i] = 1
	}
	zeros := make([]float32, best.F)
	epi := kernels.NewBNEpilogue(nil, ones, zeros, zeros, ones, 1e-5, true)
	wp := kernels.PackConvWeights(w)
	x := randTensor(seed+1, s.maxBatch, bestIn.C, bestIn.H, bestIn.W)
	y := tensor.New(s.maxBatch, best.F, g.OutSize(bestIn.H), g.OutSize(bestIn.W))
	ms := timeMs(4*iters, func() { kernels.ConvForwardBatchedPrepacked(x, wp, g.K, epi, y, g.S, g.Pad, nil, 0) })
	vals["kernels.conv_prepacked_gflops"] = bestFlops / ms / 1e6
	return nil
}
