// Command trainmesh really trains a (reduced-size) mesh-tangling
// segmentation model with hybrid sample/spatial parallelism on in-process
// ranks — the end-to-end demonstration that the distributed algorithms
// train indistinguishably from a single device (Section III's exactness
// property, exercised at application level).
//
// Usage:
//
//	trainmesh -size 64 -batch 4 -iters 20 -pn 2 -ph 2 -pw 1
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
)

func main() {
	size := flag.Int("size", 64, "input size (square)")
	batch := flag.Int("batch", 4, "global mini-batch size")
	iters := flag.Int("iters", 20, "training iterations")
	pn := flag.Int("pn", 2, "sample-parallel ways")
	ph := flag.Int("ph", 2, "spatial ways in H")
	pw := flag.Int("pw", 1, "spatial ways in W")
	lr := flag.Float64("lr", 0.05, "learning rate")
	seed := flag.Int64("seed", 1, "data and init seed")
	overlap := flag.Bool("overlap", true, "overlap gradient allreduces with backward compute (bitwise-identical results; -overlap=false restores the synchronous baseline)")
	flag.Parse()

	grid := dist.Grid{PN: *pn, PH: *ph, PW: *pw}
	if err := grid.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	arch := models.MeshTiny(*size)
	outShape, err := arch.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("training %s (%d convs) on %d ranks (%v), batch %d, input %dx%dx4\n",
		arch.Name, arch.NumConvs(), grid.Size(), grid, *batch, *size, *size)

	cfg := data.MeshConfig{Size: *size, Channels: 4, OutSize: outShape.H}
	x, labels := data.MeshBatch(cfg, *batch, *seed)
	fmt.Printf("tangle fraction in labels: %.3f\n", data.TangleFraction(labels))

	// Ranks are the parallelism unit; keep kernels single-threaded.
	kernels.SetMaxWorkers(1)

	var mu sync.Mutex
	losses := make([]float64, *iters)
	accs := make([]float64, *iters)
	t0 := time.Now()
	world := comm.NewWorld(grid.Size())
	world.Run(func(c *comm.Comm) {
		ctx := core.NewCtx(c, grid)
		net, err := nn.NewDistNet(ctx, arch, *batch, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		if *overlap {
			net.Grad = nn.GradOverlap
		}
		xs := core.Scatter(x, net.InputDist())
		lbl := nn.ScatterLabels(labels, net.OutputDist())
		opt := nn.NewSGD(float32(*lr), 0.9, 1e-4)
		for it := 0; it < *iters; it++ {
			logits := net.Forward(xs[ctx.Rank])
			loss, dl := nn.DistSegLoss(ctx, logits, lbl[ctx.Rank])
			net.Backward(dl)
			opt.Step(net.Params())
			if ctx.Rank == 0 {
				mu.Lock()
				losses[it] = loss
				mu.Unlock()
			}
			pred := kernels.PixelArgmax(logits.Local)
			acc := nn.PixelAccuracy(pred, lbl[ctx.Rank])
			if ctx.Rank == 0 {
				mu.Lock()
				accs[it] = acc
				mu.Unlock()
			}
		}
	})
	elapsed := time.Since(t0)

	for it := 0; it < *iters; it++ {
		if it%5 == 0 || it == *iters-1 {
			fmt.Printf("iter %3d: loss %.4f  local pixel-acc %.3f\n", it, losses[it], accs[it])
		}
	}
	fmt.Printf("trained %d iterations in %v (%.1f ms/iter)\n",
		*iters, elapsed.Round(time.Millisecond), float64(elapsed.Milliseconds())/float64(*iters))
	if losses[*iters-1] < losses[0] {
		fmt.Println("loss decreased: distributed training is learning")
	} else {
		fmt.Println("warning: loss did not decrease; try more iterations or a lower lr")
	}
}
