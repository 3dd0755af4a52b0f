package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
)

// traceRing is the flight recorder's per-track capacity in the traced round.
// A serving round can record more than this; the per-op figures then use,
// per track, only the ops that the surviving events cover.
const traceRing = 1 << 18

// traceTracks covers the largest world the workloads start: one front-end
// and two replica ranks.
const traceTracks = 4

// A serving round's trace file keeps the end of the round (the metrics use
// all of it): the last traceFileWindow, or as much more as it takes to hold
// each caller's last traceFileOps requests. Enough requests to read on every
// track whatever a request costs, small enough to load.
const (
	traceFileWindow = 50 * time.Millisecond
	traceFileOps    = 16
)

// traceFileStart is where a serving trace file begins (UnixNano).
func traceFileStart(sp *spanLog) int64 {
	var last int64
	for _, spans := range sp.perRank {
		for _, sn := range spans {
			last = max(last, sn.end)
		}
	}
	from := last - traceFileWindow.Nanoseconds()
	for _, spans := range sp.perRank {
		if len(spans) > 0 {
			from = min(from, spans[max(0, len(spans)-traceFileOps)].start)
		}
	}
	return from
}

func isCollective(st obs.Stage) bool {
	switch st {
	case obs.StageAllreduce, obs.StageBcast, obs.StageReduce, obs.StageCollGather,
		obs.StageAllgather, obs.StageReduceScatter, obs.StageAlltoAll:
		return true
	}
	return false
}

// commFromEvents reduces the flight recorder's events to the per-op comm
// figures. opEnds are the end times of the measured ops, sorted; events are
// sorted by start, as obs.Snapshot returns them.
//
// A proxy operation that carries a buffer is a non-blocking collective: the
// proxy goroutine runs it as one blocking collective on its shadow
// communicator, which the recorder also logs, so calls and bytes are counted
// from the collective events alone and the one inside each such proxy
// operation is kept out of the compute goroutine's blocked time. A
// buffer-less proxy operation is a halo exchange handed over by comm.Do:
// the sends inside it are point-to-point traffic, as are user-tag sends on
// the compute goroutine. Sends inside collectives are the collective's own.
func commFromEvents(events []obs.Event, opEnds []int64, vals map[string]float64) {
	type acc struct {
		n                        int // events on the track
		first                    int64
		proxyOps                 []obs.Event // by start; one proxy goroutine per rank, so they never overlap
		calls, collB, msgs, p2pB float64
		blockedNs, proxyNs       float64
	}
	tracks := map[int]*acc{}
	for _, ev := range events {
		a := tracks[ev.Track]
		if a == nil {
			a = &acc{first: ev.Start}
			tracks[ev.Track] = a
		}
		if ev.Stage == obs.StageProxyOp {
			a.proxyOps = append(a.proxyOps, ev)
		}
	}
	// enclosing returns the proxy operation running at time t on a's track.
	enclosing := func(a *acc, t int64) (obs.Event, bool) {
		i := sort.Search(len(a.proxyOps), func(i int) bool { return a.proxyOps[i].Start > t })
		if i == 0 || t > a.proxyOps[i-1].Start+a.proxyOps[i-1].Dur {
			return obs.Event{}, false
		}
		return a.proxyOps[i-1], true
	}
	for _, ev := range events {
		a := tracks[ev.Track]
		a.n++
		switch {
		case isCollective(ev.Stage):
			a.calls++
			a.collB += float64(ev.Arg)
			if op, ok := enclosing(a, ev.Start); !ok || op.Arg != ev.Arg {
				a.blockedNs += float64(ev.Dur)
			}
		case ev.Stage == obs.StageProxyOp:
			a.proxyNs += float64(ev.Dur)
		case ev.Stage == obs.StageSend && ev.Class == obs.ClassUser:
			a.msgs++
			a.p2pB += float64(ev.Arg)
		case ev.Stage == obs.StageSend && ev.Class == obs.ClassProxy:
			if op, ok := enclosing(a, ev.Start); ok && op.Arg == 0 {
				a.msgs++
				a.p2pB += float64(ev.Arg)
			}
		case ev.Stage == obs.StageRecv && ev.Class == obs.ClassUser:
			a.blockedNs += float64(ev.Dur)
		}
	}
	var calls, collB, msgs, p2pB, evs, blocked, proxy float64
	for _, a := range tracks {
		ops := float64(len(opEnds))
		if a.n >= traceRing-64 { // the ring wrapped: only ops since its oldest event are covered
			ops = float64(len(opEnds) - sort.Search(len(opEnds), func(i int) bool { return opEnds[i] >= a.first }))
		}
		if ops == 0 {
			continue
		}
		calls += a.calls / ops
		collB += a.collB / ops
		msgs += a.msgs / ops
		p2pB += a.p2pB / ops
		evs += float64(a.n) / ops
		blocked = max(blocked, a.blockedNs/ops)
		proxy = max(proxy, a.proxyNs/ops)
	}
	vals["comm.coll_calls_per_op"] = calls
	vals["comm.coll_kb_per_op"] = collB / 1024
	vals["comm.p2p_msgs_per_op"] = msgs
	vals["comm.p2p_kb_per_op"] = p2pB / 1024
	vals["comm.blocked_ms_per_op"] = blocked / 1e6
	vals["comm.proxy_busy_ms_per_op"] = proxy / 1e6
	vals["obs.spans_per_op"] = evs
}

func memMetrics(m memDelta, ops int, vals map[string]float64) {
	n := float64(ops)
	vals["nn.alloc_kb_per_step"] = m.allocKB / n
	vals["nn.heap_inuse_mb_max"] = m.heapInuseM
	vals["nn.gc_pause_ms_per_100ops"] = 100 * m.gcPauseMs / n
	vals["allocs_per_op"] = m.mallocs / n
}

func (j trainJob) tracedRun(p protocol, dir string) (map[string]float64, roundStats) {
	defer kernels.SetMaxWorkers(kernels.SetMaxWorkers(1))
	s, seed := j.trainSpec, j.seed
	vals := map[string]float64{}
	steps := p.tracedSteps

	t := time.Now()
	s.gen(seed)
	vals["data.gen_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6

	// The same steps untraced, then traced: the difference is the recorder's
	// (and the harness spans') own cost.
	ref := runTrain(s, 2, seed, nn.GradOverlap, p.trainWarm, steps, nil, nil)
	obs.Configure(traceTracks, traceRing)
	sp := newSpanLog(2)
	tr := runTrain(s, 2, seed, nn.GradOverlap, p.trainWarm, steps, sp, obs.Enable)
	obs.Disable()
	events := obs.Snapshot()
	rs := s.gate(tr, nil)
	if tr.err != nil || ref.err != nil {
		return vals, rs
	}
	if err := sameLosses(ref.losses, tr.losses); err != nil {
		rs.failed = 1
		rs.fails = append(rs.fails, fmt.Sprintf("%s: determinism gate, traced vs untraced: %v", s.name, err))
	}
	if err := writeChrome(filepath.Join(dir, "trace_"+s.name+".json"), sp, events, 0); err != nil {
		rs.failed = 1
		rs.fails = append(rs.fails, fmt.Sprintf("%s: write trace: %v", s.name, err))
	}

	step := median(tr.stepMs)
	phase := map[string]float64{}
	for _, name := range stepPhases {
		phase[name] = median(sp.durationsMs(0, name))
	}
	vals["nn.forward_ms_p50"], vals["nn.loss_ms_p50"] = phase["nn.forward"], phase["nn.loss"]
	vals["nn.backward_ms_p50"], vals["nn.sgd_ms_p50"] = phase["nn.backward"], phase["nn.sgd"]
	vals["nn.step_ms_p95"] = percentile(tr.stepMs, 0.95)
	vals["nn.backward_share"] = phase["nn.backward"] / step
	vals["nn.rank_skew_ms_p50"] = median(tr.skewMs)
	if k := p.trainWarm + 15; k < len(tr.losses) { // the 21st step
		vals["nn.loss_step20"] = tr.losses[k]
	}
	memMetrics(tr.mem, len(tr.stepMs), vals)
	vals["obs.trace_overhead_share"] = step/median(ref.stepMs) - 1
	vals["lat_ms_p90"] = percentile(ref.stepMs, 0.90)

	var ends []int64
	for _, sn := range sp.perRank[0] {
		if sn.name == "step" {
			ends = append(ends, sn.end)
		}
	}
	commFromEvents(events, ends, vals)
	if s.grid.SpatialWays() > 1 { // the only point-to-point traffic of a spatial DistNet is its halos
		vals["core.halo_kb_per_step"] = vals["comm.p2p_kb_per_op"]
	}

	// Gradient exchange: what it costs in the open, and what overlap leaves.
	if s.placements == nil {
		grad := map[nn.GradMode]float64{}
		for _, mode := range []nn.GradMode{nn.GradSync, nn.GradOverlap, nn.GradSkip} {
			r := runTrain(s, 2, seed, mode, p.baseWarm, p.gradSteps, nil, nil)
			grad[mode] = median(r.stepMs)
		}
		vals["nn.grad_sync_ms"] = grad[nn.GradSync] - grad[nn.GradSkip]
		vals["nn.grad_exposed_ms"] = grad[nn.GradOverlap] - grad[nn.GradSkip]
	}

	kernelProbes(s, p.probeIters, vals)
	cf, cb, bf, bb := coreLayerTimes(s, 2, p.probeIters)
	vals["core.conv_fwd_ms"], vals["core.conv_bwd_ms"] = cf, cb
	vals["core.bn_fwd_ms"], vals["core.bn_bwd_ms"] = bf, bb
	explained := cf + cb + bf + bb + phase["nn.loss"] + phase["nn.sgd"]
	if s.grid.SpatialWays() > 1 {
		f1, b1, _, _ := coreLayerTimes(s, 1, p.probeIters)
		vals["core.halo_exposed_ms"] = cf + cb - f1 - b1
	}
	if s.placements != nil {
		placementProbes(s, p.probeIters, vals)
		for _, l := range s.localLayers() {
			switch {
			case l.spec.Kind != nn.KindConv:
			case l.pl.Split == dist.SplitChannel:
				explained += vals["core.chanconv_fwd_ms"] + vals["core.chanconv_bwd_ms"]
			case l.pl.Split == dist.SplitFilter:
				explained += vals["core.filterconv_fwd_ms"] + vals["core.filterconv_bwd_ms"]
			}
		}
		explained += vals["core.redistribute_ms"]
	}
	vals["nn.closure_gap_share"] = 1 - explained/step
	commProbes(p.probeIters, vals)
	machineProbes(seed, p.probeIters, vals)
	return vals, rs
}

func stagesByName(st serve.Stats) map[string]serve.StageStats {
	m := map[string]serve.StageStats{}
	for _, s := range st.Stages {
		m[s.Name] = s
	}
	return m
}

func (j serveJob) tracedRun(p protocol, dir string) (map[string]float64, roundStats) {
	s, seed, si := j.serveSpec, j.seed, j.si
	vals := map[string]float64{}
	t := time.Now()
	s.requests(seed)
	vals["data.gen_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6

	ref := runServe(s, s.groups, seed, si, p.tracedWindow, nil, nil, nil)
	obs.Configure(traceTracks, traceRing)
	sp := newSpanLog(callers)
	var events []obs.Event
	tr := runServe(s, s.groups, seed, si, p.tracedWindow, sp, obs.Enable, func(srv *serve.Server) {
		obs.Disable()
		events = obs.Snapshot()
		s.openLoop(srv, si, p.openWindow, vals)
		s.binaryRTT(srv, si, p.binaryFrames, vals)
	})
	rs := s.gate(tr)
	if g := s.gate(ref); g.failed > 0 {
		rs.failed += g.failed
		rs.fails = append(rs.fails, g.fails...)
	}
	rs.attempted += len(ref.latMs) + callers*s.warm
	if tr.err != nil || ref.err != nil {
		return vals, rs
	}
	var ends []int64
	for _, spans := range sp.perRank {
		for _, sn := range spans {
			ends = append(ends, sn.end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if err := writeChrome(filepath.Join(dir, "trace_"+s.name+".json"), sp, events, traceFileStart(sp)); err != nil {
		rs.failed++
		rs.fails = append(rs.fails, fmt.Sprintf("%s: write trace: %v", s.name, err))
	}
	commFromEvents(events, ends, vals)

	st := tr.stats
	p50 := median(tr.latMs)
	vals["serve.avg_batch"] = st.AvgBatch
	vals["serve.batches_per_s"] = float64(len(tr.latMs)) / tr.wallS / st.AvgBatch
	vals["serve.capacity_waste_share"] = 1 - st.AvgBatch/float64(s.maxBatch)
	stages := stagesByName(st)
	for _, name := range []string{"queue_wait", "batch_wait", "route", "wire", "compute", "gather"} {
		vals["serve.stage_"+name+"_us_p50"] = float64(stages[name].P50.Nanoseconds()) / 1e3
	}
	vals["serve.overhead_share"] = 1 - float64(stages["compute"].P50.Nanoseconds())/1e6/p50
	vals["lat_ms_p90"] = percentile(ref.latMs, 0.90)
	vals["serve.lat_ms_p99"] = percentile(tr.latMs, 0.99)
	vals["serve.lat_ms_p999"] = percentile(tr.latMs, 0.999)
	vals["serve.shed_share"] = float64(st.ShedFull+st.ShedExpired+st.ShedQuota) / float64(st.Offered)
	vals["serve.retries"] = float64(st.Retries)
	if conserved(st) == nil {
		vals["serve.conservation_ok"] = 1
	}
	if len(st.Replicas) == 2 {
		a, b := float64(st.Replicas[0].Batches), float64(st.Replicas[1].Batches)
		vals["sched.imbalance_share"] = max(a-b, b-a) / (a + b)
	}
	memMetrics(tr.mem, len(tr.latMs), vals)
	vals["obs.trace_overhead_share"] = p50/median(ref.latMs) - 1

	if err := inferProbes(s, seed, p.probeIters, vals); err != nil {
		rs.failed++
		rs.fails = append(rs.fails, fmt.Sprintf("%s: inference probes: %v", s.name, err))
	}
	commProbes(p.probeIters, vals)
	machineProbes(seed, p.probeIters, vals)
	return vals, rs
}

// openLoop offers a fixed rate to the same 8 callers for window: one pacer
// releases every request that has come due (it wakes every 200us, so it
// releases small bursts), and each request is timed from when it was due,
// not from when a caller got to it — the wait a stall imposes on the
// requests behind it counts.
func (s serveSpec) openLoop(srv *serve.Server, si *serveInputs, window time.Duration, vals map[string]float64) {
	interval := time.Duration(float64(time.Second) / s.openRate)
	total := int(window / interval)
	due := make(chan time.Time, total) // sized to the number of sends: the pacer never blocks on slow callers
	var wg sync.WaitGroup
	lats := make([][]float64, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float32, srv.OutputLen())
			for d := range due {
				if srv.Predict(si.in[c][0], out) == nil {
					lats[c] = append(lats[c], float64(time.Since(d).Nanoseconds())/1e6)
				}
			}
		}(c)
	}
	start := time.Now()
	var late time.Duration
	for sent := 0; sent < total; {
		now := time.Now()
		for ; sent < total; sent++ {
			d := start.Add(time.Duration(sent) * interval)
			if d.After(now) {
				break
			}
			late = max(late, now.Sub(d))
			due <- d
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(due)
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	vals["serve.open_lat_ms_p50"] = median(all)
	vals["serve.open_late_ms_max"] = float64(late.Nanoseconds()) / 1e6
}

// binaryRTT drives the second ingest path: one binary connection over
// loopback, sequential frames, at most frames of them and at most 2 s (a
// sharded replica answers a lone request in tens of milliseconds). A box
// without loopback reports 0.
func (s serveSpec) binaryRTT(srv *serve.Server, si *serveInputs, frames int, vals map[string]float64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	go func() { _ = srv.ServeBinary(ln) }() // returns when srv.Close closes the listener
	bc, err := serve.DialBinary(ln.Addr().String(), srv.InputLen(), srv.OutputLen())
	if err != nil {
		return
	}
	defer bc.Close()
	out := make([]float32, srv.OutputLen())
	rng := rand.New(rand.NewSource(1))
	us := make([]float64, 0, frames)
	for start := time.Now(); len(us) < frames && time.Since(start) < 2*time.Second; {
		in := si.in[rng.Intn(callers)][0]
		t := time.Now()
		if bc.Predict(in, out) != nil {
			return
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	vals["serve.binary_rtt_us_p50"] = median(us)
}
