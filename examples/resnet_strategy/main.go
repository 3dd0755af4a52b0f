// ResNet strategy: walk through the performance model and the execution
// strategy optimizer on ResNet-50 (Sections V and VI-B2) — layer costs,
// where spatial parallelism pays off, and the optimizer's chosen
// decompositions across GPU budgets.
//
//	go run ./examples/resnet_strategy
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/strategy"
)

func main() {
	m := perfmodel.Lassen()
	arch := models.ResNet50(224, 1000)
	fmt.Printf("ResNet-50 on the %s machine model (%d convolutions)\n\n", m.Name, arch.NumConvs())

	// 1. Layer-level intuition: the two microbenchmark layers of Figure 2.
	fmt.Println("layer microbenchmark (N=1, modeled ms, halo overlapped):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\t1 GPU\t4-way spatial\tspeedup")
	for _, layer := range []models.LayerSpec{models.Conv1, models.Res3bBranch2a} {
		fp1, bp1, _ := bench.LayerPoint(m, layer, 1, 1, 1)
		fp4, bp4, _ := bench.LayerPoint(m, layer, 1, 4, 4)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2fx\n",
			layer.Name, (fp1+bp1)*1e3, (fp4+bp4)*1e3, (fp1+bp1)/(fp4+bp4))
	}
	tw.Flush()
	fmt.Println("-> large spatial domains (conv1) gain; 1x1 layers with small domains (res3b) gain little.")

	// 2. Whole-network cost across decompositions at a strong-scaling point.
	n := 128
	fmt.Printf("\nwhole-network modeled mini-batch time, N=%d (Table III row):\n", n)
	for _, cfg := range []struct {
		label string
		grid  dist.Grid
	}{
		{"sample 32/GPU (4 GPUs)", dist.Grid{PN: 4, PH: 1, PW: 1}},
		{"hybrid 2-way (8 GPUs)", dist.Grid{PN: 4, PH: 2, PW: 1}},
		{"hybrid 4-way (16 GPUs)", dist.Grid{PN: 4, PH: 2, PW: 2}},
	} {
		nc, err := perfmodel.CNNCost(m, arch, cfg.grid, n, perfmodel.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-24s %.4fs (FP %.4f, BP %.4f, exposed allreduce %.4f)\n",
			cfg.label, nc.MiniBatchTime, nc.FPTime, nc.BPTime, nc.ARExposed)
	}

	// 3. The optimizer across GPU budgets.
	fmt.Println("\nstrategy optimizer (shortest-path over candidate placements):")
	for _, gpus := range []int{4, 8, 16, 32} {
		st, err := strategy.Optimize(m, arch, gpus, 64)
		if err != nil {
			fmt.Printf("  %2d GPUs: %v\n", gpus, err)
			continue
		}
		// Count each placement, listed in order of first use.
		var used []dist.Placement
		counts := map[dist.Placement]int{}
		for _, pl := range st.Placements {
			if counts[pl] == 0 {
				used = append(used, pl)
			}
			counts[pl]++
		}
		fmt.Printf("  %2d GPUs: modeled cost %.4fs, placements used:", gpus, st.Cost)
		for _, pl := range used {
			fmt.Printf(" %v(x%d)", pl, counts[pl])
		}
		fmt.Println()
	}
	fmt.Println("\n-> with ample samples the optimizer prefers sample parallelism (cheapest),")
	fmt.Println("   exactly the Section V-C heuristic; constrain the batch and spatial ways appear.")

	// 4. Batch-constrained: strong scaling forces spatial parallelism.
	st, err := strategy.Optimize(m, arch, 16, 4)
	if err != nil {
		panic(err)
	}
	spatial, channel := 0, 0
	for _, pl := range st.Placements {
		if pl.Grid.SpatialWays() > 1 {
			spatial++
		}
		if pl.Grid.ChannelWays() > 1 {
			channel++
		}
	}
	fmt.Printf("\nwith only 4 samples on 16 GPUs, %d/%d layers use spatial decomposition and %d use channel/filter splits (cost %.4fs)\n",
		spatial, len(st.Placements), channel, st.Cost)

	// 5. The channel axis: on an FC-heavy stack (wide 1x1 convolutions over
	// a tiny spatial domain) neither sample nor spatial parallelism has
	// anything left to split profitably — the weights dwarf the activations.
	// The Placement API's channel/filter splits shard the weights instead
	// (Section III-D), and the optimizer finds them.
	g := dist.ConvGeom{K: 1, S: 1, Pad: 0}
	fb := nn.NewBuilder("fcheavy", nn.Shape{C: 512, H: 2, W: 2})
	c := fb.Conv("fc1", fb.Last(), 512, g, false)
	c = fb.Conv("fc2", c, 512, g, false)
	fb.Conv("fc3", c, 512, g, false)
	fcArch := fb.MustBuild()
	fcSt, err := strategy.Optimize(m, fcArch, 4, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nFC-heavy stack (512-channel 1x1 convs, 2x2 domain) on 4 GPUs, batch 1 (strong scaling):")
	for i, spec := range fcArch.Specs {
		fmt.Printf("  %-6s %-9v %v\n", spec.Name, spec.Kind, fcSt.Placements[i])
	}
	spatial2x2, err := perfmodel.CNNCost(m, fcArch, dist.Grid{PN: 1, PH: 2, PW: 2}, 1, perfmodel.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("-> modeled cost %.5fs vs %.5fs for the best spatial decomposition: with one sample and a\n",
		fcSt.Cost, spatial2x2.MiniBatchTime)
	fmt.Println("   2x2 domain only the channel axis still shards the dominant weight allreduce;")
	fmt.Println("   go run -C benchmark . -workload fcheavy_placed measures such a placed stack live.")
}
