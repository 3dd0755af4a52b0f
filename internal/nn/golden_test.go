package nn_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// goldenHashes pins the bits of every loss and of the final global
// parameters of short p = 2 training runs, of 2-rank sharded serving
// answers and of 1-rank InferNet answers, so a refactor of the
// distributed layers or of the serving path cannot move a single bit
// unnoticed. Regenerate only for a change meant to alter numerics.
var goldenHashes = map[string]uint64{
	"mesh {PH:2} sync":            0x96a4635f1bef540f,
	"mesh {PH:2} overlap":         0x96a4635f1bef540f,
	"resnet {PN:2} sync":          0x33a91ac5e4f273b7,
	"resnet {PN:2} overlap":       0x33a91ac5e4f273b7,
	"fcheavy placed sync":         0x5d0139cf76741bc4,
	"fcheavy placed overlap":      0x5d0139cf76741bc4,
	"fcheavy+bias placed sync":    0x1605557d84531957,
	"fcheavy+bias placed overlap": 0x1605557d84531957,
	"distinfer smallcnn filter":   0x385f63d299bdd244,
	"distinfer smallcnn chan":     0xdcd505427792af62,
	"infer servingArch":           0x05df64254b2ccdc9,
	"infer resnet50tiny":          0x6c66dddea66f061e,
}

func TestGoldenTrainingAndServingHashes(t *testing.T) {
	mesh, resnet, fc, fcb := models.MeshTiny(16), models.ResNet50Tiny(16, 10), fcHeavyArch(), fcHeavyBiasArch()
	trainCases := []struct {
		name string
		arch *nn.Arch
		pls  []dist.Placement
		n    int
		seg  bool
	}{
		{"mesh {PH:2}", mesh, uniform(mesh, dist.Grid{PN: 1, PH: 2, PW: 1}), 2, true},
		{"resnet {PN:2}", resnet, uniform(resnet, dist.Grid{PN: 2, PH: 1, PW: 1}), 4, false},
		{"fcheavy placed", fc, fcHeavyPlacements(fc), 4, true},
		{"fcheavy+bias placed", fcb, fcHeavyPlacements(fcb), 4, true},
	}
	got := map[string]uint64{}
	for _, tc := range trainCases {
		for _, m := range []struct {
			name string
			mode nn.GradMode
		}{{"sync", nn.GradSync}, {"overlap", nn.GradOverlap}} {
			got[tc.name+" "+m.name] = goldenTrainHash(t, tc.arch, tc.pls, tc.n, 5, tc.seg, m.mode)
		}
	}
	cnn := models.SmallCNN(8, 3, 4)
	got["distinfer smallcnn filter"] = goldenServeHash(t, cnn, dist.SplitFilter)
	got["distinfer smallcnn chan"] = goldenServeHash(t, cnn, dist.SplitChannel)
	got["infer servingArch"] = goldenInferHash(t, nn.ServingArch(8, 8), 5)
	got["infer resnet50tiny"] = goldenInferHash(t, resnet, 4)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want := goldenHashes[name]; got[name] != want {
			t.Errorf("%s: hash %#x, want %#x", name, got[name], want)
		}
	}
}

// fcHeavyBiasArch is fcHeavyArch with a bias on every conv, so the golden
// runs also pin the channel- and filter-split bias paths.
func fcHeavyBiasArch() *nn.Arch {
	b := nn.NewBuilder("fcheavybias", nn.Shape{C: 16, H: 2, W: 2})
	c := b.Last()
	for i := 0; i < 4; i++ {
		c = b.Conv(fmt.Sprintf("fc%d", i), c, 16, dist.ConvGeom{K: 1, S: 1}, true)
		c = b.ReLU(fmt.Sprintf("r%d", i), c)
	}
	b.Conv("pred", c, 4, dist.ConvGeom{K: 1, S: 1}, true)
	return b.MustBuild()
}

// goldenTrainHash trains arch under pls for steps SGD steps on p ranks and
// hashes every rank's loss bits followed by the global parameters.
func goldenTrainHash(t *testing.T, arch *nn.Arch, pls []dist.Placement, n, steps int, seg bool, mode nn.GradMode) uint64 {
	t.Helper()
	p := pls[0].Grid.Size()
	in := arch.In
	x := tensor.New(n, in.C, in.H, in.W)
	x.FillRandN(5, 1)
	outShape, _ := arch.Output()
	rng := rand.New(rand.NewSource(6))
	segLabels := make([]int32, n*outShape.H*outShape.W)
	clsLabels := make([]int, n)
	for i := range segLabels {
		segLabels[i] = int32(rng.Intn(outShape.C))
	}
	for i := range clsLabels {
		clsLabels[i] = rng.Intn(outShape.C)
	}
	losses := make([][]float64, p)
	params := make([][]nn.Param, p)
	var mu sync.Mutex
	comm.NewWorld(p).Run(func(c *comm.Comm) {
		base := core.NewCtx(c, pls[0].Grid)
		net, err := nn.NewStrategyNet(base, arch, n, 99, pls)
		if err != nil {
			t.Error(err)
			return
		}
		net.Grad = mode
		xs := core.Scatter(x, net.InputDist())
		opt := nn.NewSGD(0.05, 0.9, 1e-4)
		var ls []float64
		for it := 0; it < steps; it++ {
			logits := net.Forward(xs[base.Rank])
			var loss float64
			var dl core.DistTensor
			if seg {
				shards := nn.ScatterLabels(segLabels, net.OutputDist())
				loss, dl = nn.DistSegLoss(net.OutputCtx(), logits, shards[base.Rank])
			} else {
				shards := nn.ScatterSampleLabels(clsLabels, net.OutputDist())
				loss, dl = nn.DistClsLoss(net.OutputCtx(), logits, shards[base.Rank])
			}
			ls = append(ls, loss)
			net.Backward(dl)
			opt.Step(net.Params())
		}
		mu.Lock()
		losses[base.Rank], params[base.Rank] = ls, net.Params()
		mu.Unlock()
	})
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, ls := range losses {
		for _, l := range ls {
			put(math.Float64bits(l))
		}
	}
	global := globalParams(t, arch, pls, params)
	names := make([]string, 0, len(global))
	for name := range global {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range global[name] {
			put(uint64(math.Float32bits(v)))
		}
	}
	return h.Sum64()
}

// globalParams assembles each global parameter tensor from the slices the
// ranks hold. A conv weight [F, C, K, K] is held whole, as W[:, CRange]
// under the channel split or as W[FRange, :] under the filter split; any
// other tensor shorter than its global length is this rank's block of its
// leading dimension on the channel axis. Copies held by several ranks
// must agree bitwise.
func globalParams(t *testing.T, arch *nn.Arch, pls []dist.Placement, params [][]nn.Param) map[string][]float32 {
	t.Helper()
	shapes, err := arch.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, s := range arch.Specs {
		index[s.Name] = i
	}
	global := map[string][]float32{}
	seen := map[string][]bool{}
	for r, ps := range params {
		for _, p := range ps {
			layer, kind, _ := strings.Cut(p.Name, ".")
			i := index[layer]
			s, g := arch.Specs[i], pls[i].Norm().Grid
			_, pc, _, _ := g.Coords(r)
			rows, cols, inner := shapes[i].C, 1, 1 // [rows, cols, inner] global layout
			if s.Kind == nn.KindConv && kind == "w" {
				cols, inner = shapes[s.Parents[0]].C, s.Geom.K*s.Geom.K
			}
			fr, cr := dist.Range{Lo: 0, Hi: rows}, dist.Range{Lo: 0, Hi: cols}
			if len(p.W) != rows*cols*inner {
				switch {
				case s.Kind == nn.KindConv && kind == "w" && pls[i].Norm().Split == dist.SplitChannel:
					cr = dist.BlockPartition(cols, g.ChannelWays(), pc)
				default:
					fr = dist.BlockPartition(rows, g.ChannelWays(), pc)
				}
			}
			if len(p.W) != fr.Len()*cr.Len()*inner {
				t.Fatalf("rank %d %s: %d values, want %d", r, p.Name, len(p.W), fr.Len()*cr.Len()*inner)
			}
			if global[p.Name] == nil {
				global[p.Name] = make([]float32, rows*cols*inner)
				seen[p.Name] = make([]bool, rows*cols*inner)
			}
			dst, mark := global[p.Name], seen[p.Name]
			for f := fr.Lo; f < fr.Hi; f++ {
				for c := cr.Lo; c < cr.Hi; c++ {
					for k := 0; k < inner; k++ {
						v := p.W[((f-fr.Lo)*cr.Len()+c-cr.Lo)*inner+k]
						j := (f*cols+c)*inner + k
						if mark[j] && math.Float32bits(dst[j]) != math.Float32bits(v) {
							t.Fatalf("rank %d %s[%d] = %v, another rank holds %v", r, p.Name, j, v, dst[j])
						}
						dst[j], mark[j] = v, true
					}
				}
			}
		}
	}
	return global
}

// goldenServeHash hashes the leader's answers of a 2-rank DistInferNet,
// for every live-row count, on a checkpoint whose every parameter and
// buffer is drawn at random (so biases are nonzero).
func goldenServeHash(t *testing.T, arch *nn.Arch, split dist.Split) uint64 {
	t.Helper()
	const maxB = 3
	in := arch.In
	x := tensor.New(maxB, in.C, in.H, in.W)
	x.FillRandN(7, 1)
	seq, err := nn.NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for _, p := range seq.Params() {
		for j := range p.W {
			p.W[j] = float32(rng.NormFloat64()) * 0.3
		}
	}
	for _, p := range seq.Buffers() {
		for j := range p.W {
			p.W[j] = 0.5 + float32(rng.Float64()) // positive, valid as a variance
		}
	}
	ck, err := nn.CaptureState(arch.Name, seq.Params(), seq.Buffers())
	if err != nil {
		t.Fatal(err)
	}
	pls := nn.ShardedPlacements(arch, 2, split)
	h := fnv.New64a()
	var mu sync.Mutex
	comm.NewWorld(2).Run(func(c *comm.Comm) {
		net, err := nn.NewDistInferNet(c, arch, maxB, pls)
		if err == nil {
			err = net.LoadCheckpoint(ck)
		}
		if err != nil {
			t.Error(err)
			return
		}
		for live := 1; live <= maxB; live++ {
			y := net.Forward(x, live)
			if y == nil {
				continue
			}
			mu.Lock()
			for _, v := range y.Data() {
				u := math.Float32bits(v)
				h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
			}
			mu.Unlock()
		}
	})
	return h.Sum64()
}

// goldenInferHash hashes a 1-rank InferNet's answers at batch 1, 3 and
// maxB. The net is restored from a SeqNet trained for three SGD steps, so
// weights and batchnorm statistics have left their initialization.
func goldenInferHash(t *testing.T, arch *nn.Arch, maxB int) uint64 {
	t.Helper()
	in := arch.In
	out, err := arch.Output()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := nn.NewSeqNet(arch, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq.SetTrain(true)
	opt := nn.NewSGD(0.05, 0.9, 0)
	x := tensor.New(maxB, in.C, in.H, in.W)
	labels := make([]int, maxB)
	for step := 0; step < 3; step++ {
		x.FillRandN(int64(100+step), 1)
		for i := range labels {
			labels[i] = (i + step) % out.C
		}
		y := seq.Forward(x)
		dl := tensor.New(maxB, out.C)
		kernels.SoftmaxCrossEntropy(y.Reshape(maxB, out.C), labels, dl)
		seq.Backward(dl.Reshape(y.Shape()...))
		opt.Step(seq.Params())
	}
	ck, err := nn.CaptureState(arch.Name, seq.Params(), seq.Buffers())
	if err != nil {
		t.Fatal(err)
	}
	inf, err := nn.NewInferNet(arch, maxB)
	if err == nil {
		err = ck.Restore(arch.Name, inf.Params(), inf.Buffers())
	}
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, b := range []int{1, 3, maxB} {
		x := tensor.New(b, in.C, in.H, in.W)
		x.FillRandN(int64(20+b), 1)
		for _, v := range inf.Forward(x).Data() {
			u := math.Float32bits(v)
			h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
		}
	}
	return h.Sum64()
}
