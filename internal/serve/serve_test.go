package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// newTestServer builds a server over a small classifier plus an independent
// reference engine sharing the same weights.
func newTestServer(t *testing.T, cfg Config) (*Server, *nn.InferNet) {
	t.Helper()
	model, err := models.SmallCNNForServing(8, 3, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := model.Clone()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, ref
}

// refForward runs one sample through the reference engine at batch 1.
// Row determinism (kernels.GemmNNStable) makes this bitwise comparable to
// whatever micro-batch the server coalesced the sample into.
func refForward(ref *nn.InferNet, in []float32) []float32 {
	sh := ref.InShape()
	x := tensor.FromSlice(in, 1, sh.C, sh.H, sh.W)
	y := ref.Forward(x)
	out := make([]float32, y.Size())
	copy(out, y.Data())
	return out
}

func randInput(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float32, n)
	for i := range in {
		in[i] = rng.Float32()*2 - 1
	}
	return in
}

func TestPredictMatchesReferenceBitwise(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 8, BatchDeadline: 500 * time.Microsecond})
	for i := 0; i < 20; i++ {
		in := randInput(s.InputLen(), int64(i))
		out := make([]float32, s.OutputLen())
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
		want := refForward(ref, in)
		for j := range out {
			if out[j] != want[j] {
				t.Fatalf("request %d: output[%d] = %v, want %v (bitwise)", i, j, out[j], want[j])
			}
		}
	}
}

// The concurrency stress test the CI -race job runs: many clients, several
// replicas, every answer verified against the reference engine.
func TestConcurrentPredict(t *testing.T) {
	s, ref := newTestServer(t, Config{
		Replicas:      3,
		MaxBatch:      8,
		BatchDeadline: 200 * time.Microsecond,
		QueueDepth:    2,
	})
	const clients, perClient = 16, 25

	// Precompute references serially (ref is not concurrency-safe).
	ins := make([][]float32, clients*perClient)
	wants := make([][]float32, clients*perClient)
	for i := range ins {
		ins[i] = randInput(s.InputLen(), int64(i))
		wants[i] = refForward(ref, ins[i])
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float32, s.OutputLen())
			for k := 0; k < perClient; k++ {
				idx := c*perClient + k
				if err := s.Predict(ins[idx], out); err != nil {
					errCh <- err
					return
				}
				for j := range out {
					if out[j] != wants[idx][j] {
						errCh <- fmt.Errorf("request %d: output[%d] = %v, want %v", idx, j, out[j], wants[idx][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Errorf("stats recorded %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.Batches == 0 || st.AvgBatch < 1 {
		t.Errorf("implausible batch stats: %+v", st)
	}
}

func TestBatchDeadlineFlushesLoneRequest(t *testing.T) {
	const deadline = time.Millisecond
	s, _ := newTestServer(t, Config{MaxBatch: 16, BatchDeadline: deadline})
	in := randInput(s.InputLen(), 1)
	out := make([]float32, s.OutputLen())
	start := time.Now()
	if err := s.Predict(in, out); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 50*deadline {
		t.Errorf("lone request took %v, deadline %v — batcher not flushing on deadline", e, deadline)
	}
	st := s.Stats()
	if st.Batches != 1 || st.Occupancy[0] != 1 {
		t.Errorf("expected one batch of one request, got %+v", st)
	}
}

func TestMaxBatchCoalescing(t *testing.T) {
	// A long deadline forces coalescing: with 8 concurrent clients and
	// MaxBatch 4, flushes must come from the size trigger, in full batches.
	s, _ := newTestServer(t, Config{MaxBatch: 4, BatchDeadline: time.Second})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := randInput(s.InputLen(), int64(c))
			out := make([]float32, s.OutputLen())
			if err := s.Predict(in, out); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != 8 {
		t.Fatalf("served %d requests, want 8", st.Requests)
	}
	if st.Occupancy[3] != 2 {
		t.Errorf("expected two full batches of 4, occupancy %v", st.Occupancy)
	}
}

func TestRouterPicksLeastLoaded(t *testing.T) {
	rt := newRouter(nil, newRepSet([]int{1, 2, 1}, 1), 2, nil, nil)
	// World ranks: front-end 0, replica 0 on rank 1, replica 1 (2-rank
	// group) leading on rank 2, replica 2 on rank 4.
	wantLeaders := []int{1, 2, 4}
	for g, rep := range rt.reps {
		if rep.leader != wantLeaders[g] {
			t.Fatalf("replica %d leader rank %d, want %d", g, rep.leader, wantLeaders[g])
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// All idle: any pick is fine; load replica 0 and the router must move on.
	rt.inflight[0] = 1
	if g := rt.pick(sched.BatchView{N: 1}); g == 0 {
		t.Fatal("router picked a loaded replica over idle ones")
	}
	// Equal in-flight: the occupancy heartbeat breaks the tie.
	rt.inflight[0], rt.inflight[1], rt.inflight[2] = 1, 1, 1
	rt.reps[0].occ.Store(2)
	rt.reps[1].occ.Store(0)
	rt.reps[2].occ.Store(1)
	if g := rt.pick(sched.BatchView{N: 1}); g != 1 {
		t.Fatalf("router picked replica %d, want 1 (lowest heartbeat occupancy)", g)
	}
	// Every replica at the in-flight cap: nothing is eligible.
	rt.inflight[0], rt.inflight[1], rt.inflight[2] = 2, 2, 2
	if g := rt.pick(sched.BatchView{N: 1}); g != -1 {
		t.Fatalf("router picked %d with every replica at its cap", g)
	}
}

// TestRouterRotationDeterministic pins the deterministic tie-break
// rotation: on a fully idle fleet successive dispatches must visit the
// replicas round-robin, because the rotation cursor is policy state
// advanced once per dispatch (not per Pick call). Before the policy
// extraction the cursor was router-private and skipped retries, so fleet
// tests' batch placement depended on which code path happened to dispatch.
func TestRouterRotationDeterministic(t *testing.T) {
	rt := newRouter(nil, newRepSet([]int{1, 1, 1}, 1), 4, nil, nil)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var order []int
	for i := 0; i < 6; i++ {
		g := rt.pick(sched.BatchView{N: 1})
		if gAgain := rt.pick(sched.BatchView{N: 1}); gAgain != g {
			t.Fatalf("pick is not pure: %d then %d", g, gAgain)
		}
		rt.inflight[g]++
		rt.pol.OnDispatch(g, int64(i), 1)
		rt.inflight[g]-- // result returns before the next dispatch
		order = append(order, g)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want round-robin %v", order, want)
		}
	}
}

// TestFleetServesWithPluggablePolicy runs live fleets behind every
// registered routing policy — the production half of the scheduler lab's
// promise that any sched registry policy drops into the real router — and
// checks answers stay bitwise correct. ideal runs without an oracle here,
// so it routes least-loaded.
func TestFleetServesWithPluggablePolicy(t *testing.T) {
	for _, name := range sched.Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, ref := newTestServer(t, Config{
				Groups:        []int{1, 1},
				MaxBatch:      4,
				BatchDeadline: 500 * time.Microsecond,
				Policy:        pol,
			})
			// Precompute references serially (ref is not concurrency-safe).
			ins := make([][]float32, 12)
			wants := make([][]float32, 12)
			for c := range ins {
				ins[c] = randInput(s.InputLen(), int64(c))
				wants[c] = refForward(ref, ins[c])
			}
			var wg sync.WaitGroup
			for c := 0; c < 12; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					out := make([]float32, s.OutputLen())
					if err := s.Predict(ins[c], out); err != nil {
						t.Error(err)
						return
					}
					for j := range out {
						if out[j] != wants[c][j] {
							t.Errorf("policy %s: output[%d] = %v, want %v (bitwise)", name, j, out[j], wants[c][j])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if st := s.Stats(); st.Requests != 12 {
				t.Fatalf("served %d requests, want 12", st.Requests)
			}
		})
	}
}

func TestCloseDrainsAcceptedRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, BatchDeadline: 5 * time.Millisecond})
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := randInput(s.InputLen(), int64(i))
			out := make([]float32, s.OutputLen())
			errs[i] = s.Predict(in, out)
		}(i)
	}
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()
	for i, err := range errs {
		// ErrOverloaded is legitimate here: 32 concurrent arrivals against
		// the default admission lane can shed (that is the new bounded-queue
		// contract); everything admitted must resolve as served or closed.
		if err != nil && err != ErrClosed && err != ErrOverloaded {
			t.Errorf("request %d: %v", i, err)
		}
	}
	out := make([]float32, s.OutputLen())
	if err := s.Predict(randInput(s.InputLen(), 99), out); err != ErrClosed {
		t.Errorf("Predict after Close returned %v, want ErrClosed", err)
	}
}

// The acceptance-criteria allocation test: after warm-up the in-process
// Predict path — request pooling, batching, dispatch, batched forward,
// copy-out, stats — performs zero heap allocations per request.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	s, _ := newTestServer(t, Config{MaxBatch: 8, BatchDeadline: Greedy})
	in := randInput(s.InputLen(), 5)
	out := make([]float32, s.OutputLen())
	// Warm pools, views, and the timer. The heartbeat/result message pools
	// deepen until scheduler variance between the leader and the front-end
	// collectors never drains them; ~200 cycles is comfortably past that.
	for i := 0; i < 200; i++ {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per Predict after warm-up, want 0", allocs)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, ref := newTestServer(t, Config{MaxBatch: 4, BatchDeadline: 200 * time.Microsecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// predict
	in := randInput(s.InputLen(), 3)
	body, _ := json.Marshal(PredictRequest{Input: in})
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	want := refForward(ref, in)
	if len(pr.Output) != len(want) {
		t.Fatalf("predict returned %d outputs, want %d", len(pr.Output), len(want))
	}
	for j := range want {
		if pr.Output[j] != want[j] {
			t.Fatalf("predict output[%d] = %v, want %v", j, pr.Output[j], want[j])
		}
	}
	if pr.Argmax == nil {
		t.Error("classifier response missing argmax")
	}

	// malformed predict
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(`{"input":[1,2]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short input status %d, want 400", resp.StatusCode)
	}

	// statz
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st["requests"].(float64) < 1 {
		t.Errorf("statz reports no requests: %v", st)
	}
	for _, k := range []string{"p50_us", "p95_us", "p99_us", "batch_occupancy", "avg_batch"} {
		if _, ok := st[k]; !ok {
			t.Errorf("statz missing %q", k)
		}
	}
}

func TestLatencyHistogram(t *testing.T) {
	// Buckets must be monotone in duration and quantiles ordered.
	last := -1
	for _, d := range []time.Duration{
		time.Microsecond, 3 * time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		time.Second, time.Minute,
	} {
		b := latBucket(d)
		if b <= last {
			t.Errorf("bucket(%v) = %d, not greater than previous %d", d, b, last)
		}
		last = b
		if up := latBucketUpper(b); up < d {
			t.Errorf("bucket upper edge %v below sample %v", up, d)
		}
	}
	c := newStatsCollector(4)
	for i := 0; i < 90; i++ {
		c.recordLatency(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		c.recordLatency(10 * time.Millisecond)
	}
	st := c.snapshot()
	if st.P50 > st.P95 || st.P95 > st.P99 {
		t.Errorf("quantiles not ordered: %v %v %v", st.P50, st.P95, st.P99)
	}
	if st.P50 > 200*time.Microsecond {
		t.Errorf("p50 %v far above the 100µs mass", st.P50)
	}
	if st.P99 < 10*time.Millisecond {
		t.Errorf("p99 %v below the 10ms tail", st.P99)
	}
}

func TestConfigValidation(t *testing.T) {
	model, err := models.SmallCNNForServing(8, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(model, Config{MaxBatch: 64}); err == nil {
		t.Error("New accepted MaxBatch beyond model capacity")
	}
	s, err := New(model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // double close must be safe
}
