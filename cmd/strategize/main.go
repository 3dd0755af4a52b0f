// Command strategize runs the parallel execution strategy optimizer of
// Section V-C: given a model and a GPU budget, it prints the per-layer
// placements — 4-axis grids plus channel/filter weight splits — the
// optimizer chooses, and their modeled mini-batch time next to that of the
// best uniform decomposition, both from the one performance model.
//
// Usage:
//
//	strategize -model resnet50|resnet-tiny|mesh1k|mesh2k -gpus 16 -batch 32
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/strategy"
)

func main() {
	model := flag.String("model", "resnet50", "model: resnet50, resnet-tiny, mesh1k, mesh2k")
	gpus := flag.Int("gpus", 16, "number of GPUs")
	batch := flag.Int("batch", 32, "global mini-batch size")
	flag.Parse()

	var arch *nn.Arch
	switch *model {
	case "resnet50":
		arch = models.ResNet50(224, 1000)
	case "resnet-tiny":
		arch = models.ResNet50Tiny(64, 10)
	case "mesh1k":
		arch = models.Mesh1K()
	case "mesh2k":
		arch = models.Mesh2K()
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}

	m := perfmodel.Lassen()
	st, err := strategy.Optimize(m, arch, *gpus, *batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("model %s on %d GPUs (machine %s), batch %d\n", arch.Name, *gpus, m.Name, *batch)
	fmt.Printf("optimized strategy: modeled mini-batch time %.4fs\n", st.Cost)

	if g, nc, err := strategy.BestUniform(m, arch, *gpus, *batch); err == nil {
		fmt.Printf("best uniform decomposition: %v, modeled mini-batch time %.4fs (memory %.1f GB/GPU)\n",
			g, nc.MiniBatchTime, nc.MemoryBytes/1e9)
	} else {
		fmt.Printf("no feasible uniform decomposition: %v\n", err)
	}

	fmt.Println("\nper-layer placements (grid PN x PC x PH x PW, weight split; runs of identical assignments folded):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layers\tkind\tplacement")
	start := 0
	for i := 1; i <= len(st.Placements); i++ {
		if i < len(st.Placements) && st.Placements[i] == st.Placements[start] {
			continue
		}
		first := arch.Specs[start].Name
		last := arch.Specs[i-1].Name
		label := first
		if first != last {
			label = first + " .. " + last
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\n", label, arch.Specs[start].Kind, st.Placements[start])
		start = i
	}
	tw.Flush()
}
