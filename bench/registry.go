package main

// The registry is the single list of workload and metric names. The
// root BENCHMARK.json repeats it for the driver; bench_test.go fails
// when the two drift apart.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero
	// on per-layer metrics, which are explanatory and ungated.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all three: an operation is one
// solve to the workload's GradMapTol (world construction included) on
// ls_*, and one POST /fit round trip on serve_*. The bounds are the
// widest the benchmark driver takes: across ten seeds the reference VM
// spreads 2-4 % when steady and 9-14 % when it drifts (README, "Noise
// policy"), and a spread should stay under a third of its bound.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced-pass metrics, one module per prefix. A
// metric that does not apply to a workload (serve.* on ls_*, the Comm
// decorator counts on serve_*) is reported as 0 there.
var perLayer = []metricDef{
	{Name: "data.load_s", Unit: "s", Better: "lower"},
	{Name: "data.nnz", Unit: "count", Better: "lower"},
	{Name: "solver.lipschitz_s", Unit: "s", Better: "lower"},

	{Name: "sparse.gram_fill_s_per_round", Unit: "s", Better: "lower"},
	{Name: "sparse.gram_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "sparse.gram_rows_fill_s_per_round", Unit: "s", Better: "lower"},
	{Name: "sparse.full_grad_s", Unit: "s", Better: "lower"},
	{Name: "mat.mulvec_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.inner_s_per_round", Unit: "s", Better: "lower"},
	{Name: "prox.apply_ns_per_elt", Unit: "ns", Better: "lower"},
	{Name: "rng.sample_ns_per_draw", Unit: "ns", Better: "lower"},

	{Name: "dist.world_setup_us", Unit: "us", Better: "lower"},
	{Name: "dist.exchange_s_per_solve", Unit: "s", Better: "lower"},
	{Name: "dist.exchange_share", Unit: "ratio", Better: "lower"},
	{Name: "dist.wait_skew_s_per_solve", Unit: "s", Better: "lower"},
	{Name: "dist.calls_per_solve", Unit: "count", Better: "lower"},
	{Name: "dist.words_in_per_solve", Unit: "count", Better: "lower"},
	{Name: "dist.calls.allreduce", Unit: "count", Better: "lower"},
	{Name: "dist.calls.allreduce_shared", Unit: "count", Better: "lower"},
	{Name: "dist.calls.iallreduce", Unit: "count", Better: "lower"},
	{Name: "dist.calls.bcast", Unit: "count", Better: "lower"},
	{Name: "dist.tier_share.f64", Unit: "ratio", Better: "lower"},
	{Name: "dist.tier_share.f32", Unit: "ratio", Better: "higher"},
	{Name: "dist.tier_share.i8", Unit: "ratio", Better: "higher"},
	{Name: "dist.allreduce_us.batch", Unit: "us", Better: "lower"},
	{Name: "dist.allreduce_us.vec", Unit: "us", Better: "lower"},
	{Name: "dist.allreduce_us.scalar", Unit: "us", Better: "lower"},
	{Name: "dist.wire_mb_s.f64", Unit: "MB/s", Better: "higher"},
	{Name: "dist.wire_mb_s.f32", Unit: "MB/s", Better: "higher"},
	{Name: "dist.wire_mb_s.i8", Unit: "MB/s", Better: "higher"},
	{Name: "dist.wire_bytes_per_solve", Unit: "bytes", Better: "lower"},

	{Name: "perf.flops", Unit: "count", Better: "lower"},
	{Name: "perf.msgs", Unit: "count", Better: "lower"},
	{Name: "perf.words", Unit: "count", Better: "lower"},
	{Name: "perf.model_s", Unit: "s", Better: "lower"},
	{Name: "perf.model_over_measured", Unit: "ratio", Better: "higher"},

	{Name: "solver.rounds", Unit: "count", Better: "lower"},
	{Name: "solver.updates", Unit: "count", Better: "lower"},
	{Name: "solver.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "solver.compute_s_per_solve", Unit: "s", Better: "lower"},
	{Name: "solver.unaccounted_share", Unit: "ratio", Better: "lower"},
	{Name: "solver.alloc_mb_per_solve", Unit: "MB", Better: "lower"},
	{Name: "solver.mallocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "solver.gc_pause_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "solver.p1_solve_s", Unit: "s", Better: "lower"},
	{Name: "solver.scale_eff_p2", Unit: "ratio", Better: "higher"},
	{Name: "solver.gradmap_final", Unit: "norm", Better: "lower"},
	{Name: "solver.solve_iqr_s", Unit: "s", Better: "lower"},

	{Name: "serve.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.fit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.fit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.path_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.dataset_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.zero_round_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rounds_per_fit", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.partial_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.alloc_kb_per_fit", Unit: "KB", Better: "lower"},

	{Name: "harness.ops_timed", Unit: "count", Better: "higher"},
	{Name: "harness.untraced_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.traced_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// workload is one named set of inputs. Exactly one of ls and sv is set.
type workload struct {
	Name string
	Why  string
	ls   *lsSpec
	sv   *serveSpec
}

// The instances are part of the workload definition (fixed DataSeed,
// fixed sampling seed): time to a tolerance is only comparable on one
// instance, and redrawing it moves the round count by 2-7x (see
// README, "What the seed does"). The instances chosen put one solve at
// 0.1-0.7 s on the 2-core reference box, so a 10 s window holds 15 or
// more and a window share overruns by little.
var workloads = []workload{
	{
		Name: "ls_fill_chan",
		Why:  "dense d=192 Gram fill does most of the work over in-process channels: a kernel gain shows, a transport gain must not",
		ls: &lsSpec{Dataset: "epsilon", M: 4000, D: 192, DataSeed: 4, Backend: "chan",
			K: 8, S: 1, GradMapTol: 1e-3},
	},
	{
		Name: "ls_bw_tcp",
		Why:  "25 rounds of a 4.9 MB f64 batch over loopback sockets: bandwidth-bound exchange, frame path and hub combine",
		ls: &lsSpec{Dataset: "mnist", M: 8000, D: 392, DataSeed: 4, Backend: "tcp",
			K: 8, S: 1, GradMapTol: 1e-5},
	},
	{
		Name: "ls_lat_tcp",
		Why:  "k=1: 160 rounds and 330 small collectives per 0.25 s solve over sockets, per-message cost dominates, payload bytes negligible",
		ls: &lsSpec{Dataset: "covtype", M: 24000, D: 54, DataSeed: 1, Backend: "tcp",
			K: 1, S: 1, GradMapTol: 1e-5},
	},
	{
		Name: "ls_screen_tcp",
		Why:  "feature path: active-set screening, pipelined rounds, auto i8/f32 tier, S=5 reuse on 0.1 s solves where fixed cost shows",
		ls: &lsSpec{Dataset: "mnist", M: 8000, D: 784, DataSeed: 1, Backend: "tcp",
			K: 8, S: 5, GradMapTol: 1e-4, ActiveSet: true, Pipeline: true, Tier: "auto",
			ObjTol: 1e-6, KeepLayout: true},
	},
	{
		Name: "serve_hot",
		Why:  "2 clients cycle a cached 16-point lambda path: every fit is a zero-round hit, so HTTP, JSON, admission, caches, world dominate",
		sv: &serveSpec{Dataset: "covtype", M: 8000, D: 54, Workers: 2, Clients: 2,
			Points: 16, RatioHi: 0.5, RatioLo: 0.05, Warm: true, DataSeed: 1},
	},
	{
		Name: "serve_cold",
		Why:  "1 client, warm=false on a fixed 8-point lambda grid: each fit is a full 60-100 round solve, the serve layer does little",
		sv: &serveSpec{Dataset: "covtype", M: 24000, D: 54, Workers: 1, Clients: 1,
			Points: 8, RatioHi: 0.11, RatioLo: 0.09, Warm: false, DataSeed: 1},
	},
}

// quickened shrinks a workload to test size: tiny shapes, so a whole
// traced and untraced pass of every workload fits in a few seconds.
func quickened(w workload) workload {
	if w.ls != nil {
		s := *w.ls
		s.M, s.D = 600, 24
		if s.GradMapTol < 1e-4 {
			s.GradMapTol = 1e-4
		}
		w.ls = &s
	}
	if w.sv != nil {
		s := *w.sv
		s.M, s.D, s.Points = 600, 12, 4
		w.sv = &s
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
