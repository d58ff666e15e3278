package main

import "github.com/hpcgo/rcsfista/internal/mat"

// reportTraced turns the traced window of a least-squares workload
// into the per-layer metrics: the decorator's view of the exchange,
// the kernel replays, the model ledger and the harness's own validity
// numbers.
func (in *lsInstance) reportTraced(r *report, tr *tracer, ops []lsOp, bare, decorated []float64, mem memDelta, seed uint64) {
	spec, ref := in.spec, in.warm
	var exchange, share, skew, compute []float64
	var first []*commStats
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		opSpan := tr.add(span{Name: "op.solve", Start: op.start, End: op.start + int64(op.dur), Parent: -1, OpID: i})
		if op.stats == nil {
			continue
		}
		if first == nil {
			first = op.stats
		}
		for _, st := range op.stats {
			for _, s := range st.spans {
				s.Parent, s.OpID = opSpan, i
				tr.add(s)
			}
		}
		ex := float64(op.stats[0].busy) / 1e9
		exchange = append(exchange, ex)
		share = append(share, ex/op.dur.Seconds())
		skew = append(skew, float64(waitSkew(op.stats))/1e9)
		compute = append(compute, float64(tr.selfTime(opSpan, 0))/1e9)
	}
	solveS := median(bare) / 1e3

	if first != nil {
		st := first[0]
		r.setSample("dist.exchange_s_per_solve", exchange)
		r.setSample("dist.exchange_share", share)
		r.setSample("dist.wait_skew_s_per_solve", skew)
		r.setSample("solver.compute_s_per_solve", compute)
		total := 0
		for _, n := range st.calls {
			total += n
		}
		r.set("dist.calls_per_solve", float64(total))
		r.set("dist.words_in_per_solve", float64(st.wordsIn))
		r.set("dist.calls.allreduce", float64(st.calls[callAllreduce]))
		r.set("dist.calls.allreduce_shared", float64(st.calls[callAllreduceShared]))
		r.set("dist.calls.iallreduce", float64(st.calls[callIAllreduce]))
		r.set("dist.calls.bcast", float64(st.calls[callBcast]))
		if tiered := st.tier[0] + st.tier[1] + st.tier[2]; tiered > 0 {
			r.set("dist.tier_share.f64", float64(st.tier[0])/float64(tiered))
			r.set("dist.tier_share.f32", float64(st.tier[1])/float64(tiered))
			r.set("dist.tier_share.i8", float64(st.tier[2])/float64(tiered))
		}
		if spec.Backend == "tcp" {
			r.set("dist.wire_bytes_per_solve", float64(st.wire))
			r.Notes = append(r.Notes, "dist.wire_bytes_per_solve is computed (words x tier width + frame headers), not counted on the socket")
		}
	}
	if spec.Pipeline {
		r.Notes = append(r.Notes, "pipelined rounds: Request.Wait cannot be wrapped from outside, so dist.exchange_* cover blocking collectives and nonblocking posts only; the in-flight batch transfer sits in solver.compute_s_per_solve")
	}

	r.set("perf.flops", float64(ref.Cost.Flops))
	r.set("perf.msgs", float64(ref.Cost.Messages))
	r.set("perf.words", float64(ref.Cost.Words))
	r.set("perf.model_s", ref.ModelSeconds)
	r.set("perf.model_over_measured", ref.ModelSeconds/solveS)
	r.set("solver.rounds", float64(ref.Rounds))
	r.set("solver.updates", float64(ref.Iters))
	r.set("solver.updates_per_s", float64(ref.Iters)/solveS)
	r.set("solver.solve_iqr_s", iqr(bare)/1e3)

	kr := replayKernels(r, in, seed)
	if first != nil {
		// What the replays do not explain: loop overhead, sampling,
		// KKT scans, evaluation, allocation and GC, and the slowdown of
		// two ranks sharing the cores.
		explained := float64(ref.Rounds)*(kr.fillPerRound+kr.innerPerRound) + median(exchange)
		r.set("solver.unaccounted_share", 1-explained/(median(decorated)/1e3))
	}

	if us, err := worldSetupUS(spec.Backend); err != nil {
		r.errorf("dist.world_setup_us: %v", err)
	} else {
		r.set("dist.world_setup_us", us)
	}
	// One wire slot: the packed Gram of the replayed dimension plus R.
	d := in.prob.X.Rows
	slot := mat.PackedLen(kr.dim) + d
	if err := replayAllreduce(r, spec, spec.K*slot, d, seed); err != nil {
		r.errorf("dist.allreduce_us: %v", err)
	}
	replayWire(r, spec.K*slot, seed)

	in.reportP1(r, solveS)

	n := float64(len(ops))
	r.set("solver.alloc_mb_per_solve", float64(mem.allocBytes)/n/1e6)
	r.set("solver.mallocs_per_solve", float64(mem.mallocs)/n)
	r.set("solver.gc_pause_ms_per_solve", float64(mem.pauseNs)/n/1e6)

	r.set("harness.ops_timed", n)
	r.setSample("harness.untraced_op_p50_ms", bare)
	r.setSample("harness.traced_op_p50_ms", decorated)
	if len(bare) > 0 && len(decorated) > 0 {
		r.set("harness.trace_overhead_share", (median(decorated)-median(bare))/median(bare))
	}
	r.set("harness.peak_rss_mb", peakRSSMB())
}

// reportP1 runs the plain single-rank baseline: the same solve on one
// rank, and the efficiency T1 / (P x TP) of the P-rank solve against it.
func (in *lsInstance) reportP1(r *report, solveS float64) {
	res, _, dur, err := in.solve(1, nil)
	if err != nil || !res.Converged {
		r.errorf("P=1 baseline solve: converged=%v err=%v", res != nil && res.Converged, err)
		return
	}
	r.set("solver.p1_solve_s", dur.Seconds())
	r.set("solver.scale_eff_p2", dur.Seconds()/(benchProcs*solveS))
}
