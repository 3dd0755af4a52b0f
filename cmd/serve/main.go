// Command serve runs the distributed inference-serving runtime as an HTTP
// service: it loads a model (fresh weights, or a checkpoint written with
// nn.SaveState), stands up a replica fleet over comm ranks behind the
// dynamic micro-batcher — single-rank InferNet replicas and/or multi-rank
// placement-sharded DistInferNet replica groups, both the forward-only
// StrategyNet with its fused epilogues — and exposes
//
//	POST /v1/predict   {"input": [C*H*W floats]} -> {"output": [...], "argmax": k}
//	GET  /healthz      liveness
//	GET  /statz        latency quantiles, stage decomposition, shed counters,
//	                   per-replica and process-health gauges
//	GET  /metrics      the same surface in Prometheus text format
//	GET  /tracez?dur=1s flight-recorder capture as Chrome trace JSON
//	                   (load in Perfetto or chrome://tracing)
//
// Usage:
//
//	serve -arch smallcnn -size 16 -classes 4 -addr :8080
//	serve -arch resnet-tiny -size 32 -classes 10 -checkpoint model.ckpt \
//	      -fleet 1,2 -max-batch 16 -deadline 2ms
//
// -fleet 1,2 runs two replicas: one unsharded, one sharded over two comm
// ranks (each rank holding a filter slice of every layer — the "model too
// big for one device" configuration; answers stay bitwise identical to the
// unsharded replica).
//
// -frontends N shards admission itself: N front-end ranks, each with its
// own lanes, batcher, and router, all feeding the shared replica set
// (replica in-flight budgets are partitioned, heartbeats fan out to every
// front-end). -binary-addr additionally serves the zero-alloc
// length-prefixed float32 frame protocol on a second listener;
// -tenant-rate/-tenant-burst arm per-tenant token-bucket quotas that shed
// over-budget binary frames at the socket.
//
// Fault-tolerance drills run with -chaos, a deterministic fault schedule
// for the in-process transport:
//
//	serve -fleet 1,1 -chaos kill=2@200,seed=7 -rejoin-after 250ms
//	serve -fleet 1,2 -chaos drop=0.01,dup=0.05,delay=0.1,maxdelay=1ms
//
// kill=R@N hard-kills world rank R at its Nth send (the front-end ranks,
// 0 through -frontends-1, are not killable); drop/dup/delay inject seeded
// per-message chaos. The
// failure detector's cadence is tuned with -heartbeat, -fail-timeout,
// -batch-timeout, and -rejoin-after (negative disables rejoin). Watch the
// drill on /statz (retries, failovers, quarantined, rejoins, per-replica
// liveness) and /healthz (ok / degraded / 503).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: profiles on /debug/pprof/
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	arch := flag.String("arch", "smallcnn", "model: smallcnn | resnet-tiny | mesh-tiny")
	size := flag.Int("size", 16, "input spatial size (square)")
	channels := flag.Int("channels", 3, "input channels (smallcnn)")
	classes := flag.Int("classes", 4, "classes (smallcnn / resnet-tiny)")
	checkpoint := flag.String("checkpoint", "", "nn.SaveState checkpoint to restore (fresh weights if empty)")
	replicas := flag.Int("replicas", 1, "single-rank model replicas (ignored when -fleet is set)")
	fleet := flag.String("fleet", "", "comma-separated replica group sizes, e.g. 1,2 = one unsharded replica + one 2-rank sharded replica")
	shardSplit := flag.String("shard-split", "filter", "weight split for sharded replicas: filter (bitwise-identical answers) | channel")
	maxBatch := flag.Int("max-batch", 8, "micro-batch flush size")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "micro-batch flush deadline (0 = greedy)")
	addr := flag.String("addr", ":8080", "listen address")
	frontEnds := flag.Int("frontends", 1, "parallel admission front-ends (each with its own lanes, batcher, and router)")
	binaryAddr := flag.String("binary-addr", "", "also serve the zero-alloc binary frame protocol on this address")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admitted requests/sec on the binary listener (0 = no quotas)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = default from -tenant-rate)")
	chaos := flag.String("chaos", "", "fault injection, e.g. kill=2@200,seed=7,drop=0.01,dup=0.05,delay=0.1,maxdelay=1ms")
	heartbeat := flag.Duration("heartbeat", 0, "replica heartbeat / failure-monitor tick (0 = default)")
	failTimeout := flag.Duration("fail-timeout", 0, "heartbeat silence before an idle replica is declared failed (0 = default)")
	batchTimeout := flag.Duration("batch-timeout", 0, "unanswered-batch timeout before its replica is declared failed (0 = default)")
	rejoinAfter := flag.Duration("rejoin-after", 0, "quarantine duration before a failed replica is respawned (0 = default, negative = never)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ on the same address")
	traceOut := flag.String("trace-out", "", "capture a flight-recorder trace at startup and write Chrome trace JSON to this file")
	traceDur := flag.Duration("trace-dur", time.Second, "capture window for -trace-out")
	flag.Parse()

	model, err := buildModel(*arch, *size, *channels, *classes, *maxBatch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *checkpoint != "" {
		f, err := os.Open(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = nn.LoadState(f, model.Arch.Name, model.Params(), model.Buffers())
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("serve: restored %s from %s\n", model.Arch.Name, *checkpoint)
	} else {
		fmt.Printf("serve: %s with fresh weights (no -checkpoint)\n", model.Arch.Name)
	}

	groups, err := parseFleet(*fleet)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	split := dist.SplitFilter
	if *shardSplit == "channel" {
		split = dist.SplitChannel
	} else if *shardSplit != "filter" {
		fmt.Fprintf(os.Stderr, "serve: unknown -shard-split %q (want filter or channel)\n", *shardSplit)
		os.Exit(2)
	}
	dl := *deadline
	if dl == 0 {
		dl = serve.Greedy
	}
	plan, err := parseChaos(*chaos, *frontEnds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if plan != nil {
		fmt.Printf("serve: chaos armed: %s\n", *chaos)
	}
	srv, err := serve.New(model, serve.Config{
		Replicas:          *replicas,
		Groups:            groups,
		ShardSplit:        split,
		FrontEnds:         *frontEnds,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		MaxBatch:          *maxBatch,
		BatchDeadline:     dl,
		HeartbeatInterval: *heartbeat,
		FailTimeout:       *failTimeout,
		BatchTimeout:      *batchTimeout,
		RejoinAfter:       *rejoinAfter,
		Fault:             plan,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	layout := fmt.Sprintf("%d replica(s)", *replicas)
	if groups != nil {
		layout = fmt.Sprintf("fleet %v (%s-split shards)", groups, *shardSplit)
	}
	if *frontEnds > 1 {
		layout += fmt.Sprintf(", %d front-ends", *frontEnds)
	}
	in := srv.InShape()
	fmt.Printf("serve: listening on %s — input %dx%dx%d (%d floats), output %d floats, %s, max batch %d, deadline %v\n",
		*addr, in.C, in.H, in.W, srv.InputLen(), srv.OutputLen(), layout, *maxBatch, *deadline)

	if *binaryAddr != "" {
		ln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go func() {
			if err := srv.ServeBinary(ln); err != nil {
				fmt.Fprintf(os.Stderr, "serve: binary listener: %v\n", err)
			}
		}()
		quota := "no quotas"
		if *tenantRate > 0 {
			quota = fmt.Sprintf("%.3g req/s per tenant", *tenantRate)
		}
		fmt.Printf("serve: binary frame ingest on %s (%s)\n", ln.Addr(), quota)
	}

	if *traceOut != "" {
		go captureTrace(*traceOut, *traceDur)
	}
	handler := srv.Handler()
	if *pprofOn {
		// net/http/pprof registers on DefaultServeMux at import; route
		// /debug/pprof/ there and everything else to the API.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		fmt.Printf("serve: pprof profiles at http://localhost%s/debug/pprof/\n", *addr)
	}
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// captureTrace records the flight recorder for dur and writes the window as
// Chrome trace JSON — the offline twin of GET /tracez for runs where nobody
// is around to curl it.
func captureTrace(path string, dur time.Duration) {
	obs.Enable()
	time.Sleep(dur)
	obs.Disable()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: trace-out: %v\n", err)
		return
	}
	defer f.Close()
	if err := obs.WriteChrome(f, obs.Snapshot()); err != nil {
		fmt.Fprintf(os.Stderr, "serve: trace-out: %v\n", err)
		return
	}
	fmt.Printf("serve: wrote %v flight-recorder trace to %s\n", dur, path)
}

// parseChaos turns a -chaos spec into a fault plan: comma-separated
// key=value pairs from kill=RANK@SEND, seed=N, drop=P, dup=P, delay=P,
// maxdelay=DURATION. Empty means no injection (nil plan). frontEnds is the
// number of front-end ranks (0..frontEnds-1), which are not killable.
func parseChaos(s string, frontEnds int) (*comm.FaultPlan, error) {
	if s == "" {
		return nil, nil
	}
	plan := &comm.FaultPlan{}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("serve: bad -chaos entry %q (want key=value)", part)
		}
		var err error
		switch key {
		case "kill":
			rs, ns, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("serve: bad -chaos kill %q (want RANK@SEND, e.g. kill=2@200)", val)
			}
			var rank, at int
			if rank, err = strconv.Atoi(rs); err == nil {
				at, err = strconv.Atoi(ns)
			}
			if err != nil || rank < frontEnds || at < 1 {
				return nil, fmt.Errorf("serve: bad -chaos kill %q (want replica rank >= %d — ranks below that are front-ends — and send count >= 1)", val, frontEnds)
			}
			if plan.Kill == nil {
				plan.Kill = make(map[int]int)
			}
			plan.Kill[rank] = at
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			plan.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			plan.Dup, err = strconv.ParseFloat(val, 64)
		case "delay":
			plan.Delay, err = strconv.ParseFloat(val, 64)
		case "maxdelay":
			plan.MaxDelay, err = time.ParseDuration(val)
		default:
			return nil, fmt.Errorf("serve: unknown -chaos key %q (want kill, seed, drop, dup, delay, or maxdelay)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: bad -chaos value %q for %s: %v", val, key, err)
		}
	}
	return plan, nil
}

// parseFleet turns "1,2" into replica group sizes; empty means nil (use
// -replicas single-rank replicas).
func parseFleet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var groups []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("serve: bad -fleet entry %q (want positive rank counts, e.g. 1,2)", part)
		}
		groups = append(groups, n)
	}
	return groups, nil
}

func buildModel(arch string, size, channels, classes, maxBatch int) (*nn.InferNet, error) {
	switch arch {
	case "smallcnn":
		return models.SmallCNNForServing(size, channels, classes, maxBatch)
	case "resnet-tiny":
		return models.ResNet50TinyForServing(size, classes, maxBatch)
	case "mesh-tiny":
		return models.MeshTinyForServing(size, maxBatch)
	default:
		return nil, fmt.Errorf("serve: unknown arch %q (want smallcnn, resnet-tiny, or mesh-tiny)", arch)
	}
}
