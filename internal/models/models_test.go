package models

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestResNet50LayerShapes(t *testing.T) {
	arch := ResNet50(224, 1000)
	shapes, err := arch.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]nn.Shape{}
	specIdx := map[string]int{}
	for i, s := range arch.Specs {
		byName[s.Name] = shapes[i]
		specIdx[s.Name] = i
	}
	// conv1: 224 -> 112, 64 filters (Figure 2 caption).
	if got := byName["conv1"]; got.C != 64 || got.H != 112 || got.W != 112 {
		t.Errorf("conv1 output = %+v, want {64 112 112}", got)
	}
	// res3b_branch2a: input C=512 H=28 W=28, F=128, K=1 S=1 (Figure 2).
	i, ok := specIdx["res3b_branch2a"]
	if !ok {
		t.Fatal("res3b_branch2a not found")
	}
	s := arch.Specs[i]
	in := shapes[s.Parents[0]]
	if in.C != 512 || in.H != 28 || in.W != 28 {
		t.Errorf("res3b_branch2a input = %+v, want {512 28 28}", in)
	}
	if s.F != 128 || s.Geom.K != 1 || s.Geom.S != 1 || s.Geom.Pad != 0 {
		t.Errorf("res3b_branch2a spec = F%d %+v, want F128 K1 S1 P0", s.F, s.Geom)
	}
	// Final stage output 7x7x2048; logits 1000.
	if got := byName["res5c_relu"]; got.C != 2048 || got.H != 7 {
		t.Errorf("res5c output = %+v, want {2048 7 7}", got)
	}
	out := shapes[len(shapes)-1]
	if out.C != 1000 || out.H != 1 || out.W != 1 {
		t.Errorf("output = %+v, want {1000 1 1}", out)
	}
	if arch.NumConvs() != 54 { // 53 ResNet convs + 1x1 classifier
		t.Errorf("NumConvs = %d, want 54", arch.NumConvs())
	}
}

func TestResNet50ParamCount(t *testing.T) {
	arch := ResNet50(224, 1000)
	net, err := nn.NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range net.Params() {
		total += len(p.W)
	}
	// Reference ResNet-50 has ~25.56M parameters; our fully-convolutional
	// classifier matches the FC layer's count exactly.
	if total < 25_400_000 || total > 25_700_000 {
		t.Errorf("parameter count = %d, want ~25.56M", total)
	}
}

func TestMeshModelShapes(t *testing.T) {
	for _, tc := range []struct {
		arch     *nn.Arch
		inSize   int
		numConvs int
	}{
		{Mesh1K(), 1024, 6*3 + 1},
		{Mesh2K(), 2048, 6*5 + 1},
	} {
		shapes, err := tc.arch.Shapes()
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.arch.NumConvs(); got != tc.numConvs {
			t.Errorf("%s: NumConvs = %d, want %d", tc.arch.Name, got, tc.numConvs)
		}
		out := shapes[len(shapes)-1]
		want := tc.inSize / 64 // six stride-2 blocks
		if out.C != 2 || out.H != want || out.W != want {
			t.Errorf("%s: output = %+v, want {2 %d %d}", tc.arch.Name, out, want, want)
		}
	}
}

func TestMesh2KConvSpecsMatchFigure3(t *testing.T) {
	arch := Mesh2K()
	shapes, _ := arch.Shapes()
	for i, s := range arch.Specs {
		if s.Name == "conv1_1" {
			in := shapes[s.Parents[0]]
			if in.C != 18 || in.H != 2048 || s.F != 128 || s.Geom.K != 5 || s.Geom.S != 2 || s.Geom.Pad != 2 {
				t.Errorf("conv1_1: in=%+v F=%d geom=%+v, want C18 H2048 F128 K5 S2 P2", in, s.F, s.Geom)
			}
		}
		if s.Name == "conv6_1" {
			in := shapes[s.Parents[0]]
			if in.C != 384 || in.H != 64 || s.F != 128 || s.Geom.K != 3 || s.Geom.S != 2 || s.Geom.Pad != 1 {
				t.Errorf("conv6_1: in=%+v F=%d geom=%+v, want C384 H64 F128 K3 S2 P1", in, s.F, s.Geom)
			}
		}
		_ = i
	}
}

func TestMeshModelMemoryMotivation(t *testing.T) {
	// The paper: a 2K sample is ~288 MiB and the 2K model's activations
	// exceed 16 GB GPU memory even at N=1. Verify our shapes reproduce that
	// arithmetic (activations alone, float32, forward only).
	arch := Mesh2K()
	shapes, _ := arch.Shapes()
	sample := 18 * 2048 * 2048 * 4 // bytes
	if sample != 288*1024*1024 {
		t.Errorf("sample size = %d bytes, want 288 MiB", sample)
	}
	var act int64
	for _, s := range shapes {
		act += int64(s.C) * int64(s.H) * int64(s.W) * 4
	}
	// Training keeps activations for backpropagation and materializes error
	// signals of the same shapes, so the working set is ~2x the forward
	// activations — past 16 GiB at N=1, which is the paper's motivation for
	// spatial parallelism on this model.
	if 2*act < 16*1024*1024*1024 {
		t.Errorf("2K model training working set = %.1f GiB, expected to exceed 16 GiB", float64(2*act)/(1<<30))
	}
	if act < 8*1024*1024*1024 {
		t.Errorf("2K model activations = %.1f GiB, expected to exceed 8 GiB", float64(act)/(1<<30))
	}
}

func TestSmallCNNAndTinyModels(t *testing.T) {
	for _, arch := range []*nn.Arch{SmallCNN(16, 3, 10), MeshTiny(32), ResNet50Tiny(64, 10)} {
		if _, err := arch.Shapes(); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
		}
		if _, err := nn.NewSeqNet(arch, 1); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
		}
	}
}

// TestMeshTinyDistTrainingMatchesSeq trains the tiny mesh model for two SGD
// steps sequentially and distributed (hybrid 2x2 sample/spatial) and checks
// the losses track — the end-to-end integration test across models, nn,
// core, comm, dist, kernels and tensor.
func TestMeshTinyDistTrainingMatchesSeq(t *testing.T) {
	arch := MeshTiny(32)
	outShape, _ := arch.Output()
	n := 4
	x := tensor.New(n, 4, 32, 32)
	x.FillRandN(1, 1)
	labels := make([]int32, n*outShape.H*outShape.W)
	rng := rand.New(rand.NewSource(2))
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}

	seq, err := nn.NewSeqNet(arch, 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(0.05, 0.9, 0)
	var seqLosses []float64
	for it := 0; it < 2; it++ {
		logits := seq.Forward(x)
		loss, dl := nn.SegLoss(logits, labels)
		seqLosses = append(seqLosses, loss)
		seq.Backward(dl)
		opt.Step(seq.Params())
	}

	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	losses := make([][]float64, g.Size())
	var mu sync.Mutex
	w := comm.NewWorld(g.Size())
	w.Run(func(c *comm.Comm) {
		ctx := core.NewCtx(c, g)
		net, err := nn.NewDistNet(ctx, arch, n, 11)
		if err != nil {
			t.Error(err)
			return
		}
		o := nn.NewSGD(0.05, 0.9, 0)
		var ls []float64
		xs := core.Scatter(x, net.InputDist())
		lbl := nn.ScatterLabels(labels, net.OutputDist())
		for it := 0; it < 2; it++ {
			logits := net.Forward(xs[ctx.Rank])
			loss, dl := nn.DistSegLoss(ctx, logits, lbl[ctx.Rank])
			ls = append(ls, loss)
			net.Backward(dl)
			o.Step(net.Params())
		}
		mu.Lock()
		losses[ctx.Rank] = ls
		mu.Unlock()
	})
	for r := 0; r < g.Size(); r++ {
		for it := range seqLosses {
			d := losses[r][it] - seqLosses[it]
			if d > 1e-4 || d < -1e-4 {
				t.Errorf("rank %d iter %d: loss %g vs sequential %g", r, it, losses[r][it], seqLosses[it])
			}
		}
	}
}

func TestForServingFactories(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (*nn.InferNet, error)
	}{
		{"resnet-tiny", func() (*nn.InferNet, error) { return ResNet50TinyForServing(16, 4, 3) }},
		{"mesh-tiny", func() (*nn.InferNet, error) { return MeshTinyForServing(16, 3) }},
		{"smallcnn", func() (*nn.InferNet, error) { return SmallCNNForServing(16, 3, 5, 3) }},
	} {
		inf, err := tc.make()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		in := inf.InShape()
		x := tensor.New(3, in.C, in.H, in.W)
		x.FillPattern(0.2)
		y := inf.Forward(x)
		if y.Dim(0) != 3 {
			t.Errorf("%s: forward batch dim %d, want 3", tc.name, y.Dim(0))
		}
	}
}
