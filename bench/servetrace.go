package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// serveRef is the harness's own copy of the instance the server fits:
// what the replies are checked against.
type serveRef struct {
	prob        *data.Problem
	gamma       float64
	loadS, lipS float64
	lastW       []float64
}

// verify re-requests every point of the cycle with return_w after the
// window and checks each reply from outside: the reported objective is
// the objective of the returned coefficients on the harness's copy of
// the data, and it lies within 1e-3 relative of a direct
// solver.SolveDistributed run to a 10x tighter GradMapTol. Each
// re-request is an op; a miss is a failed op.
func (in *serveInstance) verify(r *report) (*serveRef, error) {
	ds := in.spec.datasetRef()
	ref := &serveRef{}
	t := time.Now()
	p, err := data.LoadWith(ds.Name, ds.Samples, ds.Features, ds.Seed)
	if err != nil {
		return nil, err
	}
	ref.prob, ref.loadS = p, time.Since(t).Seconds()
	cfg := in.srv.Config()
	o := solver.Defaults() // the server's request defaults: b=0.1, k=s=1, seed 42
	t = time.Now()
	ref.gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(p.X, p.Y, o.B, 8, lipschitzSeed))
	ref.lipS = time.Since(t).Seconds()
	o.Gamma, o.MaxIter, o.EpochLen = ref.gamma, cfg.MaxIter, cfg.EpochLen
	o.GradMapTol = cfg.GradMapTol / 10

	for i := range in.cycle {
		req := in.cycle[i]
		req.ReturnW, req.NoStore = true, true
		r.Attempted++
		f := in.fit(&req)
		if !f.ok() || len(f.resp.W) != p.X.Rows {
			r.fail("verify fit %d: status %d err %v partial %v converged %v len(w) %d",
				i, f.status, f.err, f.resp.Partial, f.resp.Converged, len(f.resp.W))
			continue
		}
		obj := prox.NewObjective(p.X, p.Y, prox.L1{Lambda: f.resp.Lambda})
		if got := obj.F(f.resp.W, nil); math.Abs(got-f.resp.Objective) > 1e-9*math.Abs(got) {
			r.fail("verify fit %d: objective %.12g but F(w) = %.12g", i, f.resp.Objective, got)
			continue
		}
		o.Lambda, o.W0 = f.resp.Lambda, f.resp.W
		w, err := dist.NewWorldOn("chan", benchProcs, perf.Comet())
		if err != nil {
			return nil, err
		}
		direct, err := solver.SolveDistributed(w, p.X, p.Y, o)
		if err != nil || !direct.Converged {
			r.fail("verify fit %d: direct solve at GradMapTol %g: converged=%v err=%v",
				i, o.GradMapTol, direct != nil && direct.Converged, err)
			continue
		}
		if math.Abs(direct.FinalObj-f.resp.Objective) > 1e-3*math.Abs(direct.FinalObj) {
			r.fail("verify fit %d: objective %.9g, direct solve reaches %.9g", i, f.resp.Objective, direct.FinalObj)
		}
		ref.lastW = f.resp.W
	}
	return ref, nil
}

// handlerMS replays the cycle through Handler().ServeHTTP with a
// recorder: the same decode, admission, caches, solve and encode with
// no socket and no client, which isolates net/http and loopback inside
// the client-side latency.
func (in *serveInstance) handlerMS(r *report) float64 {
	h := in.srv.Handler()
	bodies := make([][]byte, len(in.cycle))
	for i := range in.cycle {
		bodies[i], _ = json.Marshal(&in.cycle[i]) // marshalled before, in the window
	}
	var samples []float64
	start := time.Now()
	for i := 0; i < len(bodies) || time.Since(start) < replayBudget; i++ {
		req := httptest.NewRequest(http.MethodPost, "/fit", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		samples = append(samples, time.Since(t).Seconds()*1e3)
		if rec.Code != http.StatusOK {
			r.errorf("serve.handler_ms_p50: status %d", rec.Code)
			break
		}
	}
	return median(samples)
}

// reportTraced turns the traced window of a /fit workload into the
// per-layer metrics.
func (in *serveInstance) reportTraced(r *report, tr *tracer, samples []fitSample, mem memDelta, ref *serveRef) {
	var lat, bare, traced, solve, overhead, size []float64
	var hits, zero, rounds, rejected, partial int
	for i := range samples {
		f := &samples[i]
		if f.status == http.StatusTooManyRequests {
			rejected++
		}
		if f.err == nil && f.resp.Partial {
			partial++
		}
		if !f.ok() {
			continue
		}
		ms := f.lat.Seconds() * 1e3
		lat = append(lat, ms)
		solve = append(solve, f.resp.ElapsedMS)
		overhead = append(overhead, ms-f.resp.ElapsedMS)
		size = append(size, float64(f.bytes))
		rounds += f.resp.Rounds
		if f.resp.PathCacheHit {
			hits++
		}
		if f.resp.Rounds == 0 {
			zero++
		}
		if !f.traced {
			bare = append(bare, ms)
			continue
		}
		traced = append(traced, ms)
		// The reply carries the solve's duration, not its position; the
		// child span is centred in the op. The op's self time (queue
		// wait, decode, caches, world, encode, HTTP) does not depend on
		// where it sits.
		op := tr.add(span{Name: "op.fit", Start: f.start, End: f.start + int64(f.lat), Parent: -1, OpID: i})
		el := int64(f.resp.ElapsedMS * 1e6)
		at := f.start + (int64(f.lat)-el)/2
		tr.add(span{Name: "serve.solve", Start: at, End: at + el, Parent: op, OpID: i})
	}
	n := float64(len(lat))
	r.setSample("serve.solve_ms_p50", solve)
	r.setSample("serve.overhead_ms_p50", overhead)
	r.set("serve.handler_ms_p50", in.handlerMS(r))
	r.setN("serve.fit_p90_ms", quantile(lat, 0.90), len(lat), 0)
	r.setN("serve.fit_p99_ms", quantile(lat, 0.99), len(lat), 0)
	r.set("serve.path_hit_share", float64(hits)/n)
	r.set("serve.zero_round_share", float64(zero)/n)
	r.set("serve.rounds_per_fit", float64(rounds)/n)
	r.set("serve.rejected_share", float64(rejected)/float64(len(samples)))
	r.set("serve.partial_share", float64(partial)/float64(len(samples)))
	r.setSample("serve.resp_bytes", size)
	r.set("serve.alloc_kb_per_fit", float64(mem.allocBytes)/float64(len(samples))/1e3)
	sn := in.srv.Stats().Snapshot()
	if lookups := sn.DatasetHits + sn.DatasetMisses; lookups > 0 {
		r.set("serve.dataset_hit_share", float64(sn.DatasetHits)/float64(lookups))
	}
	r.Notes = append(r.Notes, "serve.alloc_kb_per_fit counts the whole process, the harness's client included")

	r.set("data.load_s", ref.loadS)
	r.set("data.nnz", float64(ref.prob.X.Nnz()))
	r.set("solver.lipschitz_s", ref.lipS)
	if ref.lastW != nil {
		obj := prox.NewObjective(ref.prob.X, ref.prob.Y, prox.L1{Lambda: ref.prob.Lambda})
		g := make([]float64, len(ref.lastW))
		r.set("sparse.full_grad_s", timeCalls(func() { obj.Gradient(g, ref.lastW, nil) }))
	}
	if us, err := worldSetupUS("chan"); err != nil {
		r.errorf("dist.world_setup_us: %v", err)
	} else {
		r.set("dist.world_setup_us", us)
	}

	r.set("harness.ops_timed", float64(len(samples)))
	r.setSample("harness.untraced_op_p50_ms", bare)
	r.setSample("harness.traced_op_p50_ms", traced)
	if b := median(bare); b > 0 && len(traced) > 0 {
		r.set("harness.trace_overhead_share", (median(traced)-b)/b)
	}
	r.set("harness.peak_rss_mb", peakRSSMB())
}
