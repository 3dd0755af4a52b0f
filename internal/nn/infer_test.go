package nn

import (
	"bytes"
	"testing"

	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// servingArch exercises every layer kind the serving path supports:
// conv-bn-relu stem, maxpool, a residual branch with projection, 1x1
// classifier, global average pooling. The input plane is h x w.
func servingArch(h, w int) *Arch {
	b := NewBuilder("servingtest", Shape{C: 3, H: h, W: w})
	stem := b.ConvBNReLU("stem", b.Last(), 8, dist.ConvGeom{K: 3, S: 1, Pad: 1})
	p := b.MaxPool("pool", stem, dist.ConvGeom{K: 2, S: 2, Pad: 0})
	br := b.Conv("b2a", p, 8, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
	br = b.BatchNorm("b2a_bn", br)
	a := b.Add("res", br, p)
	r := b.ReLU("res_relu", a)
	c := b.Conv("cls", r, 4, dist.ConvGeom{K: 1, S: 1, Pad: 0}, true)
	b.GlobalAvgPool("gap", c)
	return b.MustBuild()
}

// trainBriefly runs a few SGD steps so weights and BN running statistics
// move away from their initialization (making missing-buffer bugs visible).
func trainBriefly(t *testing.T, net *SeqNet, n, h, w int) {
	t.Helper()
	net.SetTrain(true)
	opt := NewSGD(0.05, 0.9, 0)
	params := net.Params()
	x := tensor.New(n, 3, h, w)
	labels := make([]int, n)
	for step := 0; step < 3; step++ {
		x.FillRandN(int64(100+step), 1)
		for i := range labels {
			labels[i] = (i + step) % 4
		}
		y := net.Forward(x)
		logits := y.Reshape(n, 4)
		dlogits := tensor.New(n, 4)
		kernels.SoftmaxCrossEntropy(logits, labels, dlogits)
		net.Backward(dlogits.Reshape(y.Shape()...))
		opt.Step(params)
	}
}

func TestCheckpointRoundTripBitwise(t *testing.T) {
	const size, n = 8, 4
	arch := servingArch(size, size)
	a, err := NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, a, n, size, size)

	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, a.Params(), a.Buffers()); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh net with different initialization (seed 999), as
	// a fresh process would.
	b, err := NewSeqNet(arch, 999)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, b.Params(), b.Buffers()); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(n, 3, size, size)
	x.FillPattern(0.31)
	a.SetTrain(false)
	b.SetTrain(false)
	ya := a.Forward(x)
	yb := b.Forward(x)
	if d := ya.MaxAbsDiff(yb); d != 0 {
		t.Fatalf("restored eval forward differs from original: max abs diff %g, want bitwise identity", d)
	}

	// Restoring the same state twice must be idempotent bit-for-bit.
	c, _ := NewSeqNet(arch, 7)
	if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, c.Params(), c.Buffers()); err != nil {
		t.Fatal(err)
	}
	c.SetTrain(false)
	if d := yb.MaxAbsDiff(c.Forward(x)); d != 0 {
		t.Fatalf("second restore not bitwise identical: %g", d)
	}
}

func TestLoadStateRejectsParamsOnlyCheckpoint(t *testing.T) {
	arch := servingArch(8, 8)
	a, _ := NewSeqNet(arch, 1)
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, a.Params(), nil); err != nil {
		t.Fatal(err)
	}
	b, _ := NewSeqNet(arch, 2)
	err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, b.Params(), b.Buffers())
	if err == nil {
		t.Fatal("LoadState accepted a checkpoint without running statistics")
	}
}

func TestInferNetMatchesSeqEval(t *testing.T) {
	const n = 4
	// 6x10 leaves a 3x5 plane for the global average pool: a non-square
	// plane must be averaged whole, not over its leftmost square.
	for _, hw := range [][2]int{{8, 8}, {6, 10}} {
		h, w := hw[0], hw[1]
		arch := servingArch(h, w)
		seq, err := NewSeqNet(arch, 1)
		if err != nil {
			t.Fatal(err)
		}
		trainBriefly(t, seq, n, h, w)

		var buf bytes.Buffer
		if err := SaveState(&buf, arch.Name, seq.Params(), seq.Buffers()); err != nil {
			t.Fatal(err)
		}
		inf, err := NewInferNet(arch, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, inf.Params(), inf.Buffers()); err != nil {
			t.Fatal(err)
		}

		x := tensor.New(n, 3, h, w)
		x.FillPattern(0.47)
		seq.SetTrain(false)
		want := seq.Forward(x)
		got := inf.Forward(x)
		// The engines lower convolutions differently (per-sample vs batched
		// GEMM), so identity is numerical, not bitwise.
		if d := got.RelDiff(want); d > 1e-5 {
			t.Fatalf("%dx%d input: InferNet diverges from eval SeqNet: rel diff %g", h, w, d)
		}
	}
}

// Forward must be row-stable across batch sizes: a request's answer may not
// depend on which other requests the batcher packed with it.
func TestInferNetRowStableAcrossBatchSizes(t *testing.T) {
	const size, maxN = 8, 6
	arch := servingArch(size, size)
	inf, err := NewInferNet(arch, maxN)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(maxN, 3, size, size)
	x.FillPattern(0.13)
	full := inf.Forward(x).Clone()

	out := inf.OutShape()
	plane := out.C * out.H * out.W
	chw := 3 * size * size
	for _, b := range []int{1, 2, 5} {
		sub := tensor.FromSlice(x.Data()[:b*chw], b, 3, size, size)
		y := inf.Forward(sub)
		for i := 0; i < b*plane; i++ {
			if y.Data()[i] != full.Data()[i] {
				t.Fatalf("batch %d row output differs from batch %d at %d", b, maxN, i)
			}
		}
	}
}

func TestInferNetCloneSharesWeights(t *testing.T) {
	arch := servingArch(8, 8)
	a, err := NewInferNet(arch, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		t.Fatalf("clone has %d params, original %d", len(bp), len(ap))
	}
	// Mutating through one must be visible through the other (shared
	// storage), and both must produce identical outputs.
	ap[0].W[0] = 42
	if bp[0].W[0] != 42 {
		t.Fatal("clone does not share parameter storage")
	}
	x := tensor.New(2, 3, 8, 8)
	x.FillPattern(0.7)
	if d := a.Forward(x).MaxAbsDiff(b.Forward(x)); d != 0 {
		t.Fatalf("clone forward differs: %g", d)
	}
}

func TestInferNetForwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	arch := servingArch(8, 8)
	inf, err := NewInferNet(arch, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 8, 8)
	x.FillPattern(0.9)
	x1 := tensor.FromSlice(x.Data()[:3*8*8], 1, 3, 8, 8)
	for _, c := range []struct {
		name string
		in   *tensor.Tensor
	}{{"batch4", x}, {"batch1", x1}} {
		inf.Forward(c.in) // warm views and workspace
		if allocs := testing.AllocsPerRun(20, func() { inf.Forward(c.in) }); allocs != 0 {
			t.Errorf("%s: %v allocs per Forward after warm-up, want 0", c.name, allocs)
		}
	}
}

// unfusedForward is the oracle for the fused serving path: a plain walk
// over net's layers with a fresh buffer per layer, every conv through the
// pack-on-the-fly kernels.ConvForwardBatched and every batchnorm, ReLU and
// residual add as its own full pass.
func unfusedForward(net *InferNet, x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape()[0]
	outs := make([]*tensor.Tensor, len(net.layers))
	outs[0] = x
	for i := 1; i < len(net.layers); i++ {
		spec := net.Arch.Specs[i]
		sh := net.ShapeOf[i]
		in := outs[spec.Parents[0]]
		out := tensor.New(b, sh.C, sh.H, sh.W)
		switch l := net.layers[i].(type) {
		case *inferConv:
			kernels.ConvForwardBatched(in, l.w, l.b, out, spec.Geom.S, spec.Geom.Pad)
		case *inferBN:
			kernels.BatchNormInference(in, l.runMean, l.runVar, l.gamma, l.beta, l.eps, out)
		case *inferReLU:
			kernels.ReLUForward(in, out)
		case *inferAdd:
			kernels.Add(in, outs[spec.Parents[1]], out)
		default: // pooling: no fusion involved
			l.forward([2]*tensor.Tensor{in}, out)
		}
		outs[i] = out
	}
	return outs[len(outs)-1]
}

// TestInferNetFusionBitwiseMatchesLegacy is the acceptance test for the
// prepacked/fused serving path: an InferNet (prepacked weights, conv+BN+ReLU
// folded into the GEMM store epilogue, add+ReLU in one pass) must produce
// bit-for-bit the output of the unfused layer walk (pack-on-the-fly
// ConvForwardBatched, batchnorm and ReLU as separate full passes), for every
// batch size. The arch covers all three fusion shapes: conv+BN+ReLU (stem),
// conv+BN whose batchnorm feeds an Add (b2a), and an unfused biased conv
// (cls).
func TestInferNetFusionBitwiseMatchesLegacy(t *testing.T) {
	const size, maxN = 8, 5
	arch := servingArch(size, size)
	seq, err := NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, seq, maxN, size, size)
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, seq.Params(), seq.Buffers()); err != nil {
		t.Fatal(err)
	}
	fused, err := NewInferNet(arch, maxN)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, fused.Params(), fused.Buffers()); err != nil {
		t.Fatal(err)
	}

	for _, b := range []int{1, 3, maxN} {
		x := tensor.New(b, 3, size, size)
		x.FillRandN(int64(b), 1)
		if d := fused.Forward(x).MaxAbsDiff(unfusedForward(fused, x)); d != 0 {
			t.Fatalf("batch %d: fused forward differs from the unfused walk: max abs diff %g, want bitwise identity", b, d)
		}
	}
}

// TestInferNetRepack: restoring a checkpoint into a net that has already
// served uses stale prepacked weights until Repack; after Repack the output
// is bitwise the restored state's.
func TestInferNetRepack(t *testing.T) {
	const size, n = 8, 2
	arch := servingArch(size, size)
	seq, err := NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, seq, n, size, size)
	var buf bytes.Buffer
	if err := SaveState(&buf, arch.Name, seq.Params(), seq.Buffers()); err != nil {
		t.Fatal(err)
	}

	// Reference: a fresh net restored before its first Forward.
	ref, err := NewInferNet(arch, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, ref.Params(), ref.Buffers()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(n, 3, size, size)
	x.FillPattern(0.23)
	want := ref.Forward(x).Clone()

	// A net that served on its He-initialized weights, then restores.
	inf, err := NewInferNet(arch, n)
	if err != nil {
		t.Fatal(err)
	}
	inf.Forward(x) // builds the prepack from the initial weights
	if err := LoadState(bytes.NewReader(buf.Bytes()), arch.Name, inf.Params(), inf.Buffers()); err != nil {
		t.Fatal(err)
	}
	inf.Repack()
	if d := inf.Forward(x).MaxAbsDiff(want); d != 0 {
		t.Fatalf("post-Repack forward differs from fresh restore: %g, want bitwise identity", d)
	}
}

// Repack drops every conv layer's prepacked weights and cached epilogue;
// the next Forward rebuilds them from current parameter values. Call after
// restoring a checkpoint into a net (or any of its clones) that has already
// run a Forward — the serving startup flow (LoadState before the first
// Forward) does not need it, because packing is lazy.
func (n *InferNet) Repack() {
	for _, l := range n.layers {
		if cv, ok := l.(*inferConv); ok {
			cv.pack.p.Store((*packedConv)(nil))
		}
	}
}
