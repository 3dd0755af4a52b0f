// Serving fail-over drill: hard-kills one of two replicas mid-load with a
// deterministic fault plan, keeps closed-loop in-process clients hammering
// through the outage, and prints the detection / quarantine / rejoin
// timeline with the failure counters — no request may hang and no answer
// may change. It exits non-zero if an answer changes or the replica never
// rejoins.
//
// This is a narrated demo, not a measurement: serving throughput and
// latency come from `go run -C benchmark . -workload serve_routed` and
// `-workload serve_sharded`.
//
//	go run ./examples/serving
//	go run ./examples/serving -arch smallcnn -size 8 -classes 4 -clients 8
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
)

func main() {
	arch := flag.String("arch", "resnet-tiny", "model: resnet-tiny | smallcnn")
	size := flag.Int("size", 16, "input spatial size")
	classes := flag.Int("classes", 10, "classes")
	clients := flag.Int("clients", 32, "concurrent clients")
	flag.Parse()

	failoverDrill(*arch, *size, *classes, *clients)
}

// failoverDrill hard-kills the sharded replica of a 1 + shard-2 fleet in
// the middle of closed-loop load and narrates the failure-handling
// timeline: detection and quarantine (the fleet keeps serving degraded),
// batch failover (stranded batches re-routed to the survivor), and rejoin
// (weights restored from the fleet checkpoint, health probe, back in the
// routing set). Every answer is checked bitwise against a pre-kill
// reference — failover must not change a single bit.
func failoverDrill(arch string, size, classes, clients int) {
	fmt.Printf("failover drill: %s, fleet [1 2], killing sharded-replica rank 2 mid-load\n\n", arch)
	srv, err := serve.New(buildServingModel(arch, size, classes, 8), serve.Config{
		Groups:            []int{1, 2},
		MaxBatch:          8,
		BatchDeadline:     serve.Greedy,
		QueueDepth:        2,
		HeartbeatInterval: 5 * time.Millisecond,
		FailTimeout:       60 * time.Millisecond,
		BatchTimeout:      150 * time.Millisecond,
		RejoinAfter:       100 * time.Millisecond,
		Fault:             &comm.FaultPlan{Seed: 7, Kill: map[int]int{2: 400}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	in := make([]float32, srv.InputLen())
	rng := rand.New(rand.NewSource(1))
	for i := range in {
		in[i] = rng.Float32()*2 - 1
	}
	ref := make([]float32, srv.OutputLen())
	if err := srv.Predict(in, ref); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var served, mismatched, failed atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, srv.OutputLen())
			for !stop.Load() {
				switch err := srv.Predict(in, out); err {
				case nil:
					served.Add(1)
					for i := range out {
						if out[i] != ref[i] {
							mismatched.Add(1)
							break
						}
					}
				case serve.ErrOverloaded:
					time.Sleep(200 * time.Microsecond)
				default:
					failed.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(20 * time.Second)
	sawQuarantine, sawRejoin := false, false
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if !sawQuarantine && st.Quarantined >= 1 {
			sawQuarantine = true
			fmt.Printf("%8v  replica quarantined (detected + fenced), fleet serving degraded, %d answers so far\n",
				time.Since(start).Round(time.Millisecond), served.Load())
		}
		if sawQuarantine && !sawRejoin && st.Rejoins >= 1 {
			sawRejoin = true
			fmt.Printf("%8v  replica rejoined (weights restored, probe answered), full capacity back\n",
				time.Since(start).Round(time.Millisecond))
		}
		if sawRejoin {
			live := 0
			for _, rep := range st.Replicas {
				if rep.State == "live" {
					live++
				}
			}
			if live == len(st.Replicas) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("%8v  drill done\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("served %d answers, %d bitwise mismatches, %d failed predicts\n",
		served.Load(), mismatched.Load(), failed.Load())
	fmt.Printf("retries %d, failovers %d, quarantined %d, rejoins %d, dropped duplicate results %d\n",
		st.Retries, st.Failovers, st.Quarantined, st.Rejoins, st.DroppedResults)
	for g, rep := range st.Replicas {
		fmt.Printf("replica %d: ranks %v, state %s, %d batches\n", g, rep.Ranks, rep.State, rep.Batches)
	}
	if mismatched.Load() > 0 || !sawQuarantine || !sawRejoin {
		fmt.Fprintln(os.Stderr, "failover drill FAILED")
		os.Exit(1)
	}
}

func buildServingModel(arch string, size, classes, maxBatch int) *nn.InferNet {
	var model *nn.InferNet
	var err error
	switch arch {
	case "smallcnn":
		model, err = models.SmallCNNForServing(size, 3, classes, maxBatch)
	default:
		model, err = models.ResNet50TinyForServing(size, classes, maxBatch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return model
}
