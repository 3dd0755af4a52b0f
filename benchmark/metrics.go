package main

// metricDef is one row of the benchmark's definition. BENCHMARK.json carries
// name/unit/better (and bound for end-to-end metrics); the rest is the
// prediction the README prints: where the number comes from and which
// end-to-end metric, on which workload, a change to it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string
	Moves  string
}

// endToEnd is what a user of the system sees, under the names the issue
// gave them. The driver wants every end-to-end metric from every workload,
// so a workload reports its own kind's metrics and, as aliases of the same
// measurements, the other kind's: an op is a training step or a served
// request, and step_ms_p50 = lat_ms_p50 = its median time, samples_per_s =
// req_per_s = samples (one per request) per second. None is ever 0, because
// the bounds are relative. A bound is 3x the widest ten-run interquartile
// spread measured for the metric on any workload, on the box the benchmark
// was defined on, rounded up to a twentieth and capped at the 0.25 the
// driver allows (README.md has the tables).
var endToEnd = []metricDef{
	{"step_ms_p50", "ms", "lower", 0.25,
		"median wall time of one op. Training: one full step, Forward + loss + Backward + SGD.Step, barrier to barrier on rank 0's clock. Serving: alias of lat_ms_p50", ""},
	{"samples_per_s", "1/s", "higher", 0.25,
		"training: global batch x steps / measured wall time of the round (includes every hiccup the median hides). Serving: alias of req_per_s", ""},
	{"speedup_vs_1rank", "ratio", "higher", 0.25,
		"the paper's strong-scaling figure: same task and global batch on one rank, measured seconds apart in the same rounds, so the box's drift cancels. Training: 1-rank median step / 2-rank median step. Serving: req/s of the workload's 2-rank fleet / req/s of a one-replica one-rank fleet under the same 8 callers", ""},
	{"req_per_s", "1/s", "higher", 0.25,
		"serving: successful Predict calls / window. Training: alias of samples_per_s", ""},
	{"lat_ms_p50", "ms", "lower", 0.25,
		"serving: caller-side latency of one Predict, from exact sorted samples (not the server's 9%-wide histogram buckets). Training: alias of step_ms_p50", ""},
	{"setup_s", "s", "lower", 0.25,
		"workload start to first measured op: data generation, net or fleet construction, checkpoint restore, world start, warm-up ops (5 steps, or a fixed request count per caller) with the lazy packing and plan building they trigger; median of 5 builds", ""},
}

// compareGated are the three of the issue's nine end-to-end metrics that the
// driver's relative bounds cannot gate. allocs_per_op and fail_share sit at 0
// on some workload (serving allocates nothing per request; no operation
// fails). lat_ms_p90 measures the shared host more than the program: identical
// code spread 15-37% between ten-run sets on three workloads where the
// driver allows at most 25%, as the issue found for p99. BENCHMARK.json lists
// them per layer; the timed run measures them too, the -out report carries
// them, and -compare gates them, the first two with an absolute term.
var compareGated = []struct {
	metricDef
	BoundAbs float64
}{
	{metricDef{Name: "lat_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25}, 0},
	{metricDef{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02}, 0.05},
	{metricDef{Name: "fail_share", Unit: "share", Better: "lower"}, 0},
}

// perLayer holds one entry per number a layer gives up from outside. None
// is gated. A workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	// nn: executors, overlap engine, optimizer, inference nets.
	{"nn.forward_ms_p50", "ms", "lower", 0, "harness span around Forward, rank 0, traced round", "step_ms_p50, samples_per_s on the 3 training workloads"},
	{"nn.loss_ms_p50", "ms", "lower", 0, "harness span around DistSegLoss / DistClsLoss", "step_ms_p50 on training"},
	{"nn.backward_ms_p50", "ms", "lower", 0, "harness span around Backward", "step_ms_p50, samples_per_s on training"},
	{"nn.sgd_ms_p50", "ms", "lower", 0, "harness span around SGD.Step(net.Params())", "step_ms_p50 on resnet_sample (8M parameters)"},
	{"nn.step_ms_p95", "ms", "lower", 0, "95th percentile of the traced round's steps", "lat_ms_p90 on training"},
	{"nn.backward_share", "share", "lower", 0, "backward p50 / step p50", "says which of the four phases matters: 0.9 on mesh_spatial today"},
	{"nn.rank_skew_ms_p50", "ms", "lower", 0, "per step, last rank's arrival at the end-of-step barrier minus the first's", "speedup_vs_1rank on mesh_spatial, resnet_sample"},
	{"nn.grad_sync_ms", "ms", "lower", 0, "10 steps each with net.Grad = GradSync and GradSkip: median step difference", "step_ms_p50 on resnet_sample; about 0 on mesh_spatial"},
	{"nn.grad_exposed_ms", "ms", "lower", 0, "same with GradOverlap minus GradSkip: the exchange the overlap fails to hide", "step_ms_p50 on resnet_sample"},
	{"nn.closure_gap_share", "share", "lower", 0, "1 - (sum of core.* layer probes + loss + sgd) / step: executor time no layer explains", "step_ms_p50 on training; the ROADMAP 'layers must close' figure"},
	{"nn.alloc_kb_per_step", "KB", "lower", 0, "runtime.MemStats TotalAlloc delta / ops over the measured part", "allocs_per_op, nn.step_ms_p95"},
	{"nn.heap_inuse_mb_max", "MB", "lower", 0, "HeapInuse at the end of the measured part", "nn.gc_pause_ms_per_100ops"},
	{"nn.gc_pause_ms_per_100ops", "ms", "lower", 0, "PauseTotalNs delta per 100 ops", "lat_ms_p90, nn.step_ms_p95 on training"},
	{"nn.loss_step20", "loss", "lower", 0, "loss value of the 21st step; repeats bitwise for a seed", "flags an arithmetic change; the loss gates feed failed/attempted"},
	{"nn.infer_forward_ms_b1", "ms", "lower", 0, "probe InferNet.Forward at batch 1", "lat_ms_p50 on serve_routed (small), reference for the sharded cost on serve_sharded"},
	{"nn.infer_forward_ms_bmax", "ms", "lower", 0, "probe InferNet.Forward at MaxBatch", "req_per_s on both serving workloads"},
	{"nn.distinfer_forward_ms_live2", "ms", "lower", 0, "probe DistInferNet.Forward(x, 2) on a 2-rank world", "req_per_s, lat_ms_p50 on serve_sharded"},
	{"nn.distinfer_forward_ms_livemax", "ms", "lower", 0, "same with live = MaxBatch; equal to live2 today (fixed capacity)", "should separate from live2 when only live rows are carried"},

	// core: distributed layers.
	{"core.conv_fwd_ms", "ms", "lower", 0, "sum over the workload's core.Conv layers of Forward on the workload's grid, each layer probed alone", "step_ms_p50 on mesh_spatial, resnet_sample"},
	{"core.conv_bwd_ms", "ms", "lower", 0, "same, Backward with DeferAllreduce", "step_ms_p50 on mesh_spatial, resnet_sample"},
	{"core.halo_exposed_ms", "ms", "lower", 0, "conv fwd+bwd on {PH:2} minus the same layers on one rank at the half-height shard", "step_ms_p50, speedup_vs_1rank on mesh_spatial; 0 elsewhere"},
	{"core.halo_kb_per_step", "KB", "lower", 0, "bytes of the flight recorder's point-to-point send events / steps", "core.halo_exposed_ms on mesh_spatial"},
	{"core.bn_fwd_ms", "ms", "lower", 0, "sum over the workload's core.BatchNorm layers of Forward", "step_ms_p50 on resnet_sample, mesh_spatial"},
	{"core.bn_bwd_ms", "ms", "lower", 0, "same, Backward", "step_ms_p50 on resnet_sample, mesh_spatial"},
	{"core.chanconv_fwd_ms", "ms", "lower", 0, "probe ChannelParallelConv.Forward at 512->512, 2x2, batch 4, PC:2", "step_ms_p50 on fcheavy_placed only"},
	{"core.chanconv_bwd_ms", "ms", "lower", 0, "same, Backward", "step_ms_p50 on fcheavy_placed only"},
	{"core.filterconv_fwd_ms", "ms", "lower", 0, "probe FilterParallelConv.Forward at the same shape", "step_ms_p50 on fcheavy_placed only"},
	{"core.filterconv_bwd_ms", "ms", "lower", 0, "same, Backward", "step_ms_p50 on fcheavy_placed only"},
	{"core.redistribute_ms", "ms", "lower", 0, "probe core.Redistribute across the workload's two placement boundaries, forward and back", "step_ms_p50 on fcheavy_placed only"},
	{"core.redistribute_kb_per_step", "KB", "lower", 0, "core.ShuffleVolume over the same boundaries, all ranks, both directions", "core.redistribute_ms"},

	// kernels: single-thread probes at per-rank local shapes; flops computed from shapes.
	{"kernels.conv_fwd_ms", "ms", "lower", 0, "sum over the workload's conv layers of ConvForward", "step_ms_p50, samples_per_s on training"},
	{"kernels.conv_bwd_data_ms", "ms", "lower", 0, "same, ConvBackwardDataRegion", "step_ms_p50 on mesh_spatial (large-spatial 3x3), resnet_sample (channel-heavy 1x1), fcheavy_placed"},
	{"kernels.conv_bwd_filter_ms", "ms", "lower", 0, "same, ConvBackwardFilter", "step_ms_p50 on training"},
	{"kernels.elementwise_ms", "ms", "lower", 0, "sum of the batchnorm, ReLU and pooling kernels, forward and backward", "step_ms_p50 on training"},
	{"kernels.conv_fwd_gflops", "GFLOP/s", "higher", 0, "computed forward flops / kernels.conv_fwd_ms", "read against kernels.gemm_gflops_512"},
	{"kernels.conv_bwd_data_gflops", "GFLOP/s", "higher", 0, "computed flops / kernels.conv_bwd_data_ms", "step_ms_p50 on training"},
	{"kernels.conv_bwd_filter_gflops", "GFLOP/s", "higher", 0, "computed flops / kernels.conv_bwd_filter_ms", "step_ms_p50 on training"},
	{"kernels.bwd_over_fwd", "ratio", "lower", 0, "(bwd_data + bwd_filter) / fwd time; 2 is the arithmetic ratio", "about 20 today"},
	{"kernels.step_gflop", "GFLOP", "lower", 0, "computed conv flops of one step, all ranks (a count)", "none; the size of the work"},
	{"kernels.gemm_gflops_512", "GFLOP/s", "higher", 0, "GemmNN 512^3, same run: the machine anchor every GFLOP/s is read against", "none directly; explains box-to-box differences"},
	{"kernels.gemm_prepacked_gflops_512", "GFLOP/s", "higher", 0, "GemmNNPrepacked 512^3", "none directly"},
	{"kernels.conv_prepacked_gflops", "GFLOP/s", "higher", 0, "ConvForwardBatchedPrepacked with the BN+ReLU epilogue at the model's heaviest conv, batch = MaxBatch", "req_per_s, lat_ms_p50 on serve_sharded; must not move training"},
	{"kernels.allocs_per_call", "count", "lower", 0, "Mallocs delta over the kernel probes / calls", "allocs_per_op"},

	// comm: flight-recorder events of the traced round plus 2-rank probes.
	{"comm.coll_calls_per_op", "count", "lower", 0, "recorder: blocking collectives (barriers excluded) and proxy operations, all ranks / ops; repeats exactly", "what fusion or bucketing alters: step_ms_p50 on resnet_sample; lat_ms_p50 on serve_sharded"},
	{"comm.coll_kb_per_op", "KB", "lower", 0, "payload bytes of the same events / ops", "step_ms_p50 on resnet_sample"},
	{"comm.p2p_msgs_per_op", "count", "lower", 0, "recorder: point-to-point sends outside collectives, all ranks / ops", "lat_ms_p50 on serve_routed, serve_sharded; step_ms_p50 on mesh_spatial (halos)"},
	{"comm.p2p_kb_per_op", "KB", "lower", 0, "bytes of the same sends / ops", "same"},
	{"comm.blocked_ms_per_op", "ms", "lower", 0, "recorder: time inside blocking collectives and point-to-point Recv on compute goroutines, worst rank / ops", "step_ms_p50 on resnet_sample, fcheavy_placed; speedup_vs_1rank on mesh_spatial"},
	{"comm.proxy_busy_ms_per_op", "ms", "lower", 0, "recorder: time inside proxy_op spans, worst rank / ops", "nn.grad_exposed_ms"},
	{"comm.pingpong_us", "us", "lower", 0, "probe: 1-word Send + Recv round trip between 2 ranks", "lat_ms_p50 on serve_routed"},
	{"comm.barrier_us", "us", "lower", 0, "probe: Barrier on 2 ranks", "the harness's own per-step cost"},
	{"comm.allreduce_small_us", "us", "lower", 0, "probe: Allreduce of 1 K words", "step_ms_p50 on resnet_sample (batch-norm allreduces), fcheavy_placed"},
	{"comm.allgather_us", "us", "lower", 0, "probe: Allgather of 8 K words", "step_ms_p50 on fcheavy_placed; lat_ms_p50 on serve_sharded"},
	{"comm.iallreduce_launch_us", "us", "lower", 0, "probe: time for IAllreduce of 1 K words to return", "nn.grad_exposed_ms"},
	{"comm.allreduce_large_gbps", "GB/s", "higher", 0, "probe: AllreduceAlgo(buf, OpSum, AllreduceStableRing) at 8 M words, payload bytes / time", "step_ms_p50 on resnet_sample only"},
	{"comm.allocs_per_call", "count", "lower", 0, "Mallocs delta over the comm probes / calls", "allocs_per_op"},

	// serve: Server.Stats(), recorder, caller-side samples.
	{"serve.avg_batch", "count", "higher", 0, "stats: requests / batches", "req_per_s on serving"},
	{"serve.batches_per_s", "1/s", "higher", 0, "stats: batches / window", "req_per_s on serving"},
	{"serve.capacity_waste_share", "share", "lower", 0, "1 - avg_batch / MaxBatch: rows a fixed-capacity group computes for nobody", "req_per_s on serve_sharded (0.86 today)"},
	{"serve.stage_queue_wait_us_p50", "us", "lower", 0, "stats Stages[queue_wait].P50", "lat_ms_p50, lat_ms_p90 on serve_routed"},
	{"serve.stage_batch_wait_us_p50", "us", "lower", 0, "stats Stages[batch_wait].P50", "lat_ms_p50 on serve_routed"},
	{"serve.stage_route_us_p50", "us", "lower", 0, "stats Stages[route].P50", "lat_ms_p50 on serve_routed"},
	{"serve.stage_wire_us_p50", "us", "lower", 0, "stats Stages[wire].P50", "lat_ms_p50 on serve_routed"},
	{"serve.stage_compute_us_p50", "us", "lower", 0, "stats Stages[compute].P50", "lat_ms_p50 on serve_sharded"},
	{"serve.stage_gather_us_p50", "us", "lower", 0, "stats Stages[gather].P50", "lat_ms_p50 on serve_routed"},
	{"serve.overhead_share", "share", "lower", 0, "1 - compute p50 / caller latency p50", "req_per_s on serve_routed (most of it); about 0 on serve_sharded"},
	{"serve.lat_ms_p99", "ms", "lower", 0, "caller-side, exact", "reported, not gated"},
	{"serve.lat_ms_p999", "ms", "lower", 0, "caller-side, exact", "reported, not gated"},
	{"serve.shed_share", "share", "lower", 0, "stats: sheds / offered", "failed/attempted"},
	{"serve.retries", "count", "lower", 0, "stats: batch re-dispatches", "failed/attempted"},
	{"serve.conservation_ok", "bool", "higher", 0, "1 when Offered == Requests + sheds + Canceled + Failed", "failed/attempted"},
	{"serve.open_lat_ms_p50", "ms", "lower", 0, "open loop: one pacer offers a fixed rate (20 000/s serve_routed, 100/s serve_sharded) to the same 8 callers; each request timed from when it was due", "queueing the closed loop cannot show"},
	{"serve.open_late_ms_max", "ms", "lower", 0, "how late the pacer itself ran, worst case", "validity of serve.open_lat_ms_p50"},
	{"serve.binary_rtt_us_p50", "us", "lower", 0, "one DialBinary connection, sequential frames against ServeBinary on loopback", "keeps the second ingest path visible; loopback noise is 25% run to run"},

	// the rest of the modules.
	{"sched.pick_ns", "ns", "lower", 0, "probe sched.NewLeastLoaded().Pick over two ReplicaViews", "lat_ms_p90 on serve_routed"},
	{"sched.imbalance_share", "share", "lower", 0, "stats Replicas: |batches0 - batches1| / total", "lat_ms_p90 on serve_routed"},
	{"sim.sim_req_per_s", "1/s", "higher", 0, "sim.NewWorld replaying the serve_routed fleet shape: simulated requests per wall second", "none end to end; guards the simulator"},
	{"strategy.optimize_ms", "ms", "lower", 0, "strategy.Optimize(perfmodel.Lassen(), models.ResNet50(224,1000), 16, 32)", "setup_s of a planner-driven run"},
	{"strategy.placement_stable", "bool", "higher", 0, "1 if Optimize on the fcheavy arch (p=2, n=4) returns the placement recorded when this benchmark was defined", "a 0 flags perfmodel drift"},
	{"obs.trace_overhead_share", "share", "lower", 0, "traced round's median op time / untraced round's - 1", "none; the recorder's own cost"},
	{"obs.spans_per_op", "count", "lower", 0, "recorder events / ops", "obs.trace_overhead_share"},
	{"data.gen_ms", "ms", "lower", 0, "time of the workload's input generation (MeshBatch / ClassBatch / caller patterns)", "setup_s"},
	{"tensor.region_copy_gbps", "GB/s", "higher", 0, "ExtractRegionInto + InsertRegion of a halo-shaped strip", "core.halo_exposed_ms on mesh_spatial"},
	{"lat_ms_p90", "ms", "lower", 0, "90th percentile of the op times (steps or caller-side request latencies) of the traced run's untraced reference round; the timed run reports the median over its rounds", "one of the issue's nine end-to-end metrics; too noisy on this shared host for the driver's 25% cap, so -compare gates it at 25% and calls it unresolved when the rounds disagree"},
	{"allocs_per_op", "count", "lower", 0, "process-wide Mallocs delta / ops over the measured part (1 173 on a mesh_spatial step, 0 on the serving path)", "one of the issue's nine end-to-end metrics; -compare gates it at 2% + 0.05"},
	{"fail_share", "share", "lower", 0, "failed / attempted of the run, as in the result line", "one of the issue's nine end-to-end metrics; -compare gates it at 0, and any failure makes the command exit 1"},
}

// workloadWhy records why each workload is here; BENCHMARK.json carries the
// short form (200 characters), the README the full rationale.
var workloadWhy = []struct{ Name, Why string }{
	{"mesh_spatial", "N=1 < P=2: a 192x192 sample too large to split by sample, so only spatial decomposition scales it; kernels conv backward is 90% of the step, core halo exchange the only traffic"},
	{"resnet_sample", "sample parallelism at its limit (one sample per rank), 8M parameters: a 32 MB gradient allreduce, 35 batch-norm allreduces and the SGD pass; comm, nn overlap and optimizer carry the weight, no halos"},
	{"fcheavy_placed", "StrategyNet with literal channel/filter placements on wide 1x1 convs: activation allreduce/allgather per layer and shuffles at placement boundaries that neither DistNet workload executes"},
	{"serve_routed", "tiny model on two 1-rank replicas, 8 closed-loop callers: compute is tens of us, so admission, batcher, sched routing, comm wire and collectors - the serve pipeline - do most of the work"},
	{"serve_sharded", "one 2-rank filter-split replica (DistInferNet): prepacked fused inference convs and group collectives at fixed capacity; the nn/kernels/comm inference paths carry the cost, not the serve pipeline"},
}
