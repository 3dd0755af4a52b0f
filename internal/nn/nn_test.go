package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// tinySegArch is a small line network for unit tests: conv-bn-relu, strided
// conv, 1x1 predictor.
func tinySegArch(size int) *Arch {
	b := NewBuilder("tiny", Shape{C: 2, H: size, W: size})
	c := b.ConvBNReLU("c1", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1})
	c = b.ConvBNReLU("c2", c, 6, dist.ConvGeom{K: 3, S: 2, Pad: 1})
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	return b.MustBuild()
}

// tinyResArch has a residual branch (Add with projection), exercising the
// DAG path.
func tinyResArch(size int) *Arch {
	b := NewBuilder("tinyres", Shape{C: 3, H: size, W: size})
	stem := b.ConvBNReLU("stem", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1})
	br := b.Conv("b2a", stem, 4, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	br = b.BatchNorm("b2a_bn", br)
	a := b.Add("res", br, stem)
	r := b.ReLU("res_relu", a)
	c := b.Conv("cls", r, 3, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	b.GlobalAvgPool("gap", c)
	return b.MustBuild()
}

func TestArchValidateAndShapes(t *testing.T) {
	a := tinySegArch(8)
	shapes, err := a.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	out := shapes[len(shapes)-1]
	if out.C != 2 || out.H != 4 || out.W != 4 {
		t.Fatalf("output shape = %+v, want {2 4 4}", out)
	}
	if a.NumConvs() != 3 {
		t.Fatalf("NumConvs = %d, want 3", a.NumConvs())
	}
}

func TestArchRejectsBadDAG(t *testing.T) {
	a := &Arch{Name: "bad", In: Shape{C: 1, H: 4, W: 4}, Specs: []Spec{
		{Name: "input", Kind: KindInput},
		{Name: "add", Kind: KindAdd, Parents: []int{0}}, // wrong arity
	}}
	if a.Validate() == nil {
		t.Fatal("invalid arch accepted")
	}
	a2 := &Arch{Name: "bad2", In: Shape{C: 1, H: 4, W: 4}, Specs: []Spec{
		{Name: "relu", Kind: KindReLU, Parents: []int{0}}, // no input layer
	}}
	if a2.Validate() == nil {
		t.Fatal("arch without input accepted")
	}
}

// fdSegArch is tinySegArch without ReLUs: finite differences are unreliable
// through ReLU kinks when perturbing batchnorm shifts (which move a whole
// channel of zero-centered activations across the threshold), so the FD
// tests check the smooth part of the chain; ReLU gradients are covered by
// the kernels tests and the distributed-vs-sequential exactness tests.
func fdSegArch(size int) *Arch {
	b := NewBuilder("fdseg", Shape{C: 2, H: size, W: size})
	c := b.Conv("c1", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	c = b.BatchNorm("c1_bn", c)
	c = b.Conv("c2", c, 6, dist.ConvGeom{K: 3, S: 2, Pad: 1}, false)
	c = b.BatchNorm("c2_bn", c)
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	return b.MustBuild()
}

func TestSeqNetGradientFiniteDifference(t *testing.T) {
	arch := fdSegArch(6)
	net, err := NewSeqNet(arch, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	x := tensor.New(n, 2, 6, 6)
	x.FillRandN(1, 1)
	labels := make([]int32, n*3*3)
	rng := rand.New(rand.NewSource(2))
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}
	lossOf := func() float64 {
		logits := net.Forward(x)
		l, _ := SegLoss(logits, labels)
		return l
	}
	logits := net.Forward(x)
	_, dlogits := SegLoss(logits, labels)
	net.Backward(dlogits)

	params := net.Params()
	eps := float32(1e-2)
	checked := 0
	for _, p := range params {
		for _, j := range []int{0, len(p.W) / 2, len(p.W) - 1} {
			orig := p.W[j]
			p.W[j] = orig + eps
			lp := lossOf()
			p.W[j] = orig - eps
			lm := lossOf()
			p.W[j] = orig
			num := (lp - lm) / (2 * float64(eps))
			ana := float64(p.G[j])
			tol := 2e-2*(math.Abs(num)+math.Abs(ana)) + 2e-3
			if math.Abs(num-ana) > tol {
				t.Errorf("%s[%d]: numerical %g vs analytic %g", p.Name, j, num, ana)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

// fdResArch is a residual network without ReLUs, for the same reason.
func fdResArch(size int) *Arch {
	b := NewBuilder("fdres", Shape{C: 3, H: size, W: size})
	stem := b.Conv("stem", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	stem = b.BatchNorm("stem_bn", stem)
	br := b.Conv("b2a", stem, 4, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	br = b.BatchNorm("b2a_bn", br)
	a := b.Add("res", br, stem)
	c := b.Conv("cls", a, 3, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	b.GlobalAvgPool("gap", c)
	return b.MustBuild()
}

func TestSeqNetResidualGradientFD(t *testing.T) {
	arch := fdResArch(6)
	net, err := NewSeqNet(arch, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := 3
	x := tensor.New(n, 3, 6, 6)
	x.FillRandN(3, 1)
	labels := []int{0, 2, 1}
	lossOf := func() float64 {
		logits := net.Forward(x)
		l, _ := ClsLoss(logits, labels)
		return l
	}
	logits := net.Forward(x)
	_, dlogits := ClsLoss(logits, labels)
	net.Backward(dlogits)
	// Check the stem conv weight — its gradient flows through both the
	// residual branch and the shortcut.
	var stem Param
	for _, p := range net.Params() {
		if p.Name == "stem.w" {
			stem = p
		}
	}
	if stem.W == nil {
		t.Fatal("stem conv parameter not found")
	}
	eps := float32(1e-2)
	for _, j := range []int{0, 5, len(stem.W) - 1} {
		orig := stem.W[j]
		stem.W[j] = orig + eps
		lp := lossOf()
		stem.W[j] = orig - eps
		lm := lossOf()
		stem.W[j] = orig
		num := (lp - lm) / (2 * float64(eps))
		ana := float64(stem.G[j])
		tol := 3e-2*(math.Abs(num)+math.Abs(ana)) + 2e-3
		if math.Abs(num-ana) > tol {
			t.Errorf("stem.w[%d]: numerical %g vs analytic %g", j, num, ana)
		}
	}
}

// uniform places every layer of arch on grid g: the NewDistNet layout.
func uniform(arch *Arch, g dist.Grid) []dist.Placement {
	pls := make([]dist.Placement, len(arch.Specs))
	for i := range pls {
		pls[i] = dist.P(g)
	}
	return pls
}

// checkMatchesSeq runs the same architecture sequentially and distributed
// under per-layer placements pls, and compares the loss and the parameters
// after one SGD step.
func checkMatchesSeq(t *testing.T, arch *Arch, pls []dist.Placement, n int, seg bool) {
	t.Helper()
	p := pls[0].Grid.Size()
	seqNet, err := NewSeqNet(arch, 99)
	if err != nil {
		t.Fatal(err)
	}
	in := arch.In
	x := tensor.New(n, in.C, in.H, in.W)
	x.FillRandN(5, 1)
	outShape, _ := arch.Output()

	var segLabels []int32
	var clsLabels []int
	rng := rand.New(rand.NewSource(6))
	if seg {
		segLabels = make([]int32, n*outShape.H*outShape.W)
		for i := range segLabels {
			segLabels[i] = int32(rng.Intn(outShape.C))
		}
	} else {
		clsLabels = make([]int, n)
		for i := range clsLabels {
			clsLabels[i] = rng.Intn(outShape.C)
		}
	}

	// Sequential pass.
	logitsSeq := seqNet.Forward(x)
	var lossSeq float64
	var dSeq *tensor.Tensor
	if seg {
		lossSeq, dSeq = SegLoss(logitsSeq, segLabels)
	} else {
		lossSeq, dSeq = ClsLoss(logitsSeq, clsLabels)
	}
	seqNet.Backward(dSeq)
	seqParams := seqNet.Params()
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step(seqParams)

	// Distributed pass.
	type rankResult struct {
		loss   float64
		params []Param
	}
	results := make([]rankResult, p)
	var mu sync.Mutex
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		base := core.NewCtx(c, pls[0].Grid)
		net, err := NewStrategyNet(base, arch, n, 99, pls)
		if err != nil {
			t.Error(err)
			return
		}
		xs := core.Scatter(x, net.InputDist())
		logits := net.Forward(xs[base.Rank])
		var loss float64
		var dl core.DistTensor
		if seg {
			shards := ScatterLabels(segLabels, net.OutputDist())
			loss, dl = DistSegLoss(net.OutputCtx(), logits, shards[base.Rank])
		} else {
			shards := ScatterSampleLabels(clsLabels, net.OutputDist())
			loss, dl = DistClsLoss(net.OutputCtx(), logits, shards[base.Rank])
		}
		net.Backward(dl)
		ps := net.Params()
		o := NewSGD(0.1, 0.9, 0)
		o.Step(ps)
		mu.Lock()
		results[base.Rank] = rankResult{loss: loss, params: ps}
		mu.Unlock()
	})

	for r := 0; r < p; r++ {
		if d := math.Abs(results[r].loss - lossSeq); d > 1e-4*(math.Abs(lossSeq)+1) {
			t.Errorf("%v rank %d: loss %g vs sequential %g", pls[0], r, results[r].loss, lossSeq)
		}
		if len(results[r].params) != len(seqParams) {
			t.Fatalf("%v: param count %d vs %d", pls[0], len(results[r].params), len(seqParams))
		}
		for i, pp := range results[r].params {
			sp := seqParams[i]
			for j := range pp.W {
				if d := math.Abs(float64(pp.W[j] - sp.W[j])); d > 2e-3 {
					t.Errorf("%v rank %d: %s[%d] = %v vs sequential %v", pls[0], r, pp.Name, j, pp.W[j], sp.W[j])
					break
				}
			}
		}
	}
}

func TestDistNetSegMatchesSeq(t *testing.T) {
	arch := tinySegArch(8)
	for _, g := range []dist.Grid{
		{PN: 1, PH: 1, PW: 1}, {PN: 2, PH: 1, PW: 1}, {PN: 1, PH: 2, PW: 1},
		{PN: 1, PH: 2, PW: 2}, {PN: 2, PH: 2, PW: 1},
	} {
		checkMatchesSeq(t, arch, uniform(arch, g), 4, true)
	}
}

func TestDistNetResidualClsMatchesSeq(t *testing.T) {
	arch := tinyResArch(8)
	for _, g := range []dist.Grid{
		{PN: 2, PH: 1, PW: 1}, {PN: 1, PH: 2, PW: 2}, {PN: 2, PH: 2, PW: 2},
	} {
		checkMatchesSeq(t, arch, uniform(arch, g), 4, false)
	}
}

func TestDistNetWithMaxPoolMatchesSeq(t *testing.T) {
	b := NewBuilder("poolnet", Shape{C: 2, H: 12, W: 12})
	c := b.ConvBNReLU("c1", b.Last(), 4, dist.ConvGeom{K: 3, S: 1, Pad: 1})
	c = b.MaxPool("mp", c, dist.ConvGeom{K: 3, S: 2, Pad: 1})
	b.Conv("pred", c, 2, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	arch := b.MustBuild()
	for _, g := range []dist.Grid{{PN: 1, PH: 2, PW: 2}, {PN: 2, PH: 2, PW: 1}} {
		checkMatchesSeq(t, arch, uniform(arch, g), 2, true)
	}
}

func TestSGDMomentumKnownTrajectory(t *testing.T) {
	w := []float32{1}
	g := []float32{1}
	o := NewSGD(0.1, 0.5, 0)
	o.Step([]Param{{W: w, G: g}})
	// v = -0.1, w = 0.9
	if math.Abs(float64(w[0])-0.9) > 1e-6 {
		t.Fatalf("step1 w = %v, want 0.9", w[0])
	}
	o.Step([]Param{{W: w, G: g}})
	// v = 0.5*(-0.1) - 0.1 = -0.15, w = 0.75
	if math.Abs(float64(w[0])-0.75) > 1e-6 {
		t.Fatalf("step2 w = %v, want 0.75", w[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	w := []float32{2}
	g := []float32{0}
	o := NewSGD(0.1, 0, 0.5)
	o.Step([]Param{{W: w, G: g}})
	// g_eff = 0 + 0.5*2 = 1; w = 2 - 0.1 = 1.9
	if math.Abs(float64(w[0])-1.9) > 1e-6 {
		t.Fatalf("w = %v, want 1.9", w[0])
	}
}

func TestMetrics(t *testing.T) {
	if a := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(a-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", a)
	}
	if a := PixelAccuracy([]int32{1, 1}, []int32{1, 0}); a != 0.5 {
		t.Fatalf("PixelAccuracy = %v", a)
	}
	if iou := IoU([]int32{1, 1, 0, 0}, []int32{1, 0, 1, 0}, 1); math.Abs(iou-1.0/3) > 1e-9 {
		t.Fatalf("IoU = %v", iou)
	}
	if iou := IoU([]int32{0, 0}, []int32{0, 0}, 1); iou != 1 {
		t.Fatalf("IoU of absent class = %v, want 1", iou)
	}
}

func TestScatterLabelsMatchesScatter(t *testing.T) {
	// Labels scattered by ScatterLabels must align with tensors scattered
	// by core.Scatter.
	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	d := dist.Dist{Grid: g, N: 4, C: 1, H: 6, W: 6}
	x := tensor.New(4, 1, 6, 6)
	labels := make([]int32, 4*6*6)
	for i := range labels {
		labels[i] = int32(i % 7)
		x.Data()[i] = float32(i % 7)
	}
	xs := core.Scatter(x, d)
	ls := ScatterLabels(labels, d)
	for r := 0; r < g.Size(); r++ {
		xd := xs[r].Local.Data()
		if len(xd) != len(ls[r]) {
			t.Fatalf("rank %d: %d tensor elems vs %d labels", r, len(xd), len(ls[r]))
		}
		for i := range xd {
			if int32(xd[i]) != ls[r][i] {
				t.Fatalf("rank %d: element %d misaligned", r, i)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A few SGD steps on a fixed batch must reduce the loss (sequential).
	arch := tinySegArch(8)
	net, err := NewSeqNet(arch, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	x := tensor.New(n, 2, 8, 8)
	x.FillRandN(4, 1)
	labels := make([]int32, n*4*4)
	rng := rand.New(rand.NewSource(5))
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}
	opt := NewSGD(0.05, 0.9, 0)
	var first, last float64
	for it := 0; it < 10; it++ {
		logits := net.Forward(x)
		loss, dl := SegLoss(logits, labels)
		if it == 0 {
			first = loss
		}
		last = loss
		net.Backward(dl)
		opt.Step(net.Params())
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
}
