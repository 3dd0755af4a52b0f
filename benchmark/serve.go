package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	callers         = 8 // closed loop: each caller waits for its reply
	inputsPerCaller = 4
)

// serveSpec is one serving workload: the model, the fleet it is served by,
// and the 1-rank fleet the speed-up is taken against.
type serveSpec struct {
	name     string
	arch     *nn.Arch
	maxBatch int
	groups   []int
	// warm is how many requests each caller sends before measurement
	// starts; a count, so that set-up time follows the program's speed
	// instead of a fixed sleep.
	warm int
	// openRate is the offered rate of the traced round's open-loop probe.
	openRate float64
}

func serveRouted() serveSpec {
	return serveSpec{name: "serve_routed", arch: models.SmallCNN(8, 3, 4), maxBatch: 8,
		groups: []int{1, 1}, warm: 500, openRate: 20000}
}

func serveSharded() serveSpec {
	return serveSpec{name: "serve_sharded", arch: models.ResNet50Tiny(16, 10), maxBatch: 16,
		groups: []int{2}, warm: 4, openRate: 100}
}

// model builds the InferNet the way a deployment does: weights trained
// elsewhere (here: He-initialised from the seed by a SeqNet) arrive as a
// checkpoint and are restored before the server starts.
func (s serveSpec) model(seed int64) (*nn.InferNet, error) {
	m, err := models.ForServing(s.arch, s.maxBatch)
	if err != nil {
		return nil, err
	}
	seq, err := nn.NewSeqNet(s.arch, seed)
	if err != nil {
		return nil, err
	}
	ck, err := nn.CaptureState(s.arch.Name, seq.Params(), seq.Buffers())
	if err != nil {
		return nil, err
	}
	return m, ck.Restore(s.arch.Name, m.Params(), m.Buffers())
}

// serveInputs are the callers' request patterns and the answer each must
// get: InferNet.Forward of that input alone, at batch 1, on a net that never
// meets the server.
type serveInputs struct {
	in, want [callers][inputsPerCaller][]float32
}

// requests generates the callers' request patterns from the seed.
func (s serveSpec) requests(seed int64) *serveInputs {
	in := s.arch.In
	rng := rand.New(rand.NewSource(seed))
	var si serveInputs
	for c := 0; c < callers; c++ {
		for j := 0; j < inputsPerCaller; j++ {
			v := make([]float32, in.C*in.H*in.W)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			si.in[c][j] = v
		}
	}
	return &si
}

// inputs is requests plus the reference answer to each.
func (s serveSpec) inputs(seed int64) (*serveInputs, error) {
	ref, err := s.model(seed)
	if err != nil {
		return nil, err
	}
	in := s.arch.In
	x := tensor.New(1, in.C, in.H, in.W)
	si := s.requests(seed)
	for c := range si.in {
		for j, v := range si.in[c] {
			copy(x.Data(), v)
			si.want[c][j] = append([]float32(nil), ref.Forward(x).Data()...)
		}
	}
	return si, nil
}

// serveRun is what one build-warm-measure pass over a serving workload
// observed, caller side, plus the server's own account of it.
type serveRun struct {
	setupS float64
	latMs  []float64
	wallS  float64
	mem    memDelta
	stats  serve.Stats
	failed int
	fails  []string // first few failures, by gate
	err    error
}

func (r *serveRun) fail(format string, args ...any) {
	r.failed++
	if len(r.fails) < 4 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// bitwiseEqual is the answer gate: same bits, not same value to a tolerance.
func bitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// conserved is the accounting gate: every offered request ended in exactly
// one outcome.
func conserved(st serve.Stats) error {
	if got := st.Requests + st.ShedFull + st.ShedExpired + st.ShedQuota + st.Canceled + st.Failed; got != st.Offered {
		return fmt.Errorf("conservation: offered %d != served %d + shed %d + canceled %d + failed %d",
			st.Offered, st.Requests, st.ShedFull+st.ShedExpired+st.ShedQuota, st.Canceled, st.Failed)
	}
	return nil
}

// startServer is the timed part of set-up that is the program's own: model,
// checkpoint restore, fleet start.
func (s serveSpec) startServer(seed int64, groups []int) (*serve.Server, error) {
	m, err := s.model(seed)
	if err != nil {
		return nil, err
	}
	return serve.New(m, serve.Config{FrontEnds: 1, Groups: groups, MaxBatch: s.maxBatch, BatchDeadline: serve.Greedy})
}

// runServe starts a fresh server, lets every caller send its warm-up
// requests, then measures the closed loop for window. after (traced round)
// runs against the still-live server once the measurement is over.
func runServe(s serveSpec, groups []int, seed int64, si *serveInputs, window time.Duration, sp *spanLog, onMeasure func(), after func(*serve.Server)) serveRun {
	var res serveRun
	t0 := time.Now()
	srv, err := s.startServer(seed, groups)
	if err != nil {
		res.err = err
		return res
	}
	defer srv.Close()

	var stop atomic.Bool
	var warmed, done sync.WaitGroup
	release := make(chan struct{})
	lats := make([][]float64, callers)
	var mu sync.Mutex
	warmed.Add(callers)
	done.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer done.Done()
			out := make([]float32, srv.OutputLen())
			lat := make([]float64, 0, 1<<16)
			var bad []string
			call := func(i int, measured bool) {
				j := i % inputsPerCaller
				t := time.Now()
				err := srv.Predict(si.in[c][j], out)
				end := time.Now()
				if measured {
					lat = append(lat, float64(end.Sub(t).Nanoseconds())/1e6)
					sp.span(c, i, "request", t.UnixNano(), end.UnixNano())
				}
				switch {
				case err != nil:
					bad = append(bad, fmt.Sprintf("caller %d request %d: Predict: %v", c, i, err))
				case !bitwiseEqual(out, si.want[c][j]):
					bad = append(bad, fmt.Sprintf("caller %d request %d: answer %v, want %v bitwise (InferNet.Forward at batch 1)", c, i, out, si.want[c][j]))
				}
			}
			for i := 0; i < s.warm; i++ {
				call(i, false)
			}
			warmed.Done()
			<-release
			for i := 0; !stop.Load(); i++ {
				call(i, true)
			}
			lats[c] = lat
			mu.Lock()
			for _, b := range bad {
				res.fail("%s", b)
			}
			mu.Unlock()
		}(c)
	}
	warmed.Wait()
	res.setupS = time.Since(t0).Seconds()
	if onMeasure != nil {
		onMeasure()
	}
	var before, afterMem runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	close(release)
	time.Sleep(window)
	stop.Store(true)
	done.Wait()
	res.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&afterMem)
	res.mem = memBetween(&before, &afterMem)
	for _, l := range lats {
		res.latMs = append(res.latMs, l...)
	}
	res.stats = srv.Stats()
	if err := conserved(res.stats); err != nil {
		res.fail("%v", err)
	}
	if after != nil {
		after(srv)
	}
	return res
}
