package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/hpcgo/rcsfista/internal/load"
	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Serving evaluates the LASSO-as-a-service layer end to end — the
// system-level payoff of the paper's warm-start-friendly solvers. Three
// measurements:
//
//  1. A closed-loop lambda-path sweep (the load harness's canonical
//     workload) against an in-process server: reports latency
//     percentiles, throughput and the lambda-path cache hit rate, and
//     asserts the hit rate clears 50% — the serving acceptance bar.
//  2. A controlled warm-vs-cold comparison on one regularization path
//     (servingWarmVsCold): every path point is fitted cold (warm start
//     disabled, nothing stored) and then warm along a descending sweep,
//     each answered from the dataset's triple, asserting an aggregate
//     iteration saving and that no warm fit takes more iterations than
//     its cold twin; every published point is then re-requested as a
//     bit-equal certified hit.
//  3. A cold lambda grid on one server (servingColdGrid), answered from
//     the dataset's triple with no world: per point the iterations,
//     each fit bit-equal to its fresh-server twin, on one triple filled
//     once.
func Serving(cfg Config) *Report {
	requests, procs, maxIter := 64, 2, 4000
	dsRef := serve.DatasetRef{Name: "covtype", Samples: 2000, Features: 54, Seed: 42}
	if cfg.Scale == Full {
		// Larger instances need a larger iteration budget to converge at
		// the small end of the path (unconverged solves are never cached).
		requests, procs, maxIter = 128, 4, 40000
		dsRef.Samples = 8000
	}
	transport := cfg.Transport
	if transport == "" {
		transport = "chan"
	}

	// Phase 1: the load harness against a live server. The experiment
	// measures rounds and cache behaviour, not latency SLOs, so the
	// per-request deadline is opened wide: at Full scale a cold solve
	// can legitimately exceed the 15s serving default on a loaded
	// machine, and a deadline-clipped partial would read as a spurious
	// convergence failure.
	const exptDeadline = 10 * time.Minute
	sv := serve.New(serve.Config{
		Workers: 4, QueueCap: 4 * requests, Transport: transport,
		Procs: procs, Machine: cfg.Machine, MaxIter: maxIter,
		DefaultDeadline: exptDeadline, MaxDeadline: exptDeadline,
	})
	ts := httptest.NewServer(sv.Handler())
	lcfg := load.Config{
		BaseURL:     ts.URL,
		Requests:    requests,
		Concurrency: 4,
		Seed:        cfg.Seed,
		Sweep:       true,
		SweepLen:    16,
		Dataset:     dsRef,
		Procs:       procs,
		Warm:        true,
	}
	rep, err := load.Run(context.Background(), lcfg)
	ts.Close()
	sv.Close()
	if err != nil {
		panic("expt: serving: " + err.Error())
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		panic(fmt.Sprintf("expt: serving: %d errors, %d rejections under a closed loop", rep.Errors, rep.Rejected))
	}
	// The experiment deadline is wide open, so every solve must complete:
	// a partial here means the warm/cold round means exclude fits they
	// should have counted. Both the client-side tally and the server's
	// own counter must agree on zero.
	if rep.Partial != 0 {
		panic(fmt.Sprintf("expt: serving: %d deadline-clipped fits under a %s deadline", rep.Partial, exptDeadline))
	}
	if rep.ServerStats != nil && rep.ServerStats.PartialFits != 0 {
		panic(fmt.Sprintf("expt: serving: server counted %d partial fits under a %s deadline",
			rep.ServerStats.PartialFits, exptDeadline))
	}
	if rep.PathHitRate < 0.5 {
		panic(fmt.Sprintf("expt: serving: lambda-path hit rate %.2f below the 0.5 acceptance bar", rep.PathHitRate))
	}

	loadTbl := &trace.Table{
		Title: fmt.Sprintf("Serving: closed-loop lambda-path sweep (%d requests, conc 4, P=%d, %s transport, %s)",
			requests, procs, transport, dsRef.Key()),
		Headers: []string{"metric", "value"},
	}
	loadTbl.AddRow("throughput", fmt.Sprintf("%.1f req/s", rep.ThroughputRPS))
	loadTbl.AddRow("latency p50/p95/p99/max", fmt.Sprintf("%.1f / %.1f / %.1f / %.1f ms",
		rep.Latency.P50MS, rep.Latency.P95MS, rep.Latency.P99MS, rep.Latency.MaxMS))
	loadTbl.AddRow("lambda-path cache", fmt.Sprintf("%d hits / %d lookups (%.0f%%)",
		rep.PathHits, rep.PathHits+rep.PathMisses, 100*rep.PathHitRate))
	loadTbl.AddRow("iters of solved fits at the same lambda", rep.WarmVsCold())
	loadTbl.AddRow("answered from the triple / cache", fmt.Sprintf("%d / %d of %d fits",
		rep.AnsweredBy["triple"], rep.AnsweredBy["cache"], rep.OK))

	// Phase 2: warm-vs-cold iterations on a fresh server (clean caches).
	warmTbl := servingWarmVsCold(cfg, dsRef, procs, maxIter, transport)
	gridTbl := servingColdGrid(cfg, dsRef, procs, maxIter, transport)

	var bld strings.Builder
	bld.WriteString(loadTbl.Render())
	bld.WriteString("\n")
	bld.WriteString(warmTbl.Render())
	bld.WriteString("\n")
	bld.WriteString(gridTbl.Render())
	bld.WriteString("\nwarm starts convert the lambda-path structure of the workload into skipped iterations;\n" +
		"one resident triple per dataset spares every later fit its Gram fill.\n")
	return &Report{ID: "serving", Title: "LASSO-as-a-service: load sweep, warm-start iteration savings and the resident triple",
		Text: bld.String(), Tables: []*trace.Table{loadTbl, warmTbl, gridTbl}}
}

// servingWarmVsCold solves one descending regularization path twice
// against a fresh server — cold (lookup disabled, nothing stored) and
// warm (the serving default) — every fit answered from the dataset's
// triple, and asserts the iteration saving. The triple checks its stop
// every 10 iterations, so that is the resolution of each count.
func servingWarmVsCold(cfg Config, dsRef serve.DatasetRef, procs, maxIter int, transport string) *trace.Table {
	sv := serve.New(serve.Config{
		Workers: 1, QueueCap: 8, Transport: transport,
		Procs: procs, Machine: cfg.Machine, MaxIter: maxIter,
		DefaultDeadline: 10 * time.Minute, MaxDeadline: 10 * time.Minute,
	})
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()

	const points = 16
	ratios := make([]float64, points)
	for i := range ratios {
		frac := float64(i) / float64(points-1)
		ratios[i] = math.Exp(math.Log(0.5) + (math.Log(0.05)-math.Log(0.5))*frac)
	}

	off := false
	cold := make([]*serve.FitResponse, points)
	for i, r := range ratios {
		req := &serve.FitRequest{Dataset: &dsRef, LambdaRatio: r, Procs: procs, Warm: &off, NoStore: true}
		cold[i] = servingFit(ts.URL, req)
		if !cold[i].Converged || cold[i].Warm || cold[i].AnsweredBy != "triple" {
			panic(fmt.Sprintf("expt: serving: cold fit at ratio %.3g: converged=%v warm=%v answered by %s",
				r, cold[i].Converged, cold[i].Warm, cold[i].AnsweredBy))
		}
	}

	tbl := &trace.Table{
		Title:   fmt.Sprintf("Serving: warm-start iteration savings along one lambda path (P=%d, %d points, triple)", procs, points),
		Headers: []string{"lambda/lambda_max", "cold iters", "warm iters", "saved", "warm from"},
	}
	var totalCold, totalWarm, strict int
	warmFits := make([]*serve.FitResponse, points)
	for i, r := range ratios {
		req := &serve.FitRequest{Dataset: &dsRef, LambdaRatio: r, Procs: procs, ReturnW: true}
		warm := servingFit(ts.URL, req)
		warmFits[i] = warm
		if !warm.Converged || warm.AnsweredBy != "triple" {
			panic(fmt.Sprintf("expt: serving: warm fit at ratio %.3g: converged=%v answered by %s", r, warm.Converged, warm.AnsweredBy))
		}
		from := "-"
		if i > 0 {
			// Past the path head every fit must warm-start from the cache
			// and must not take more iterations than its cold twin. At a
			// support-transition lambda the entering coordinate starts
			// from zero in both runs and dominates the solve, so a
			// pointwise tie is the solver's physics, not a cache failure;
			// the saving is asserted in the aggregate.
			if !warm.Warm || !warm.PathCacheHit {
				panic(fmt.Sprintf("expt: serving: fit at ratio %.3g missed the lambda-path cache", r))
			}
			if warm.Iters > cold[i].Iters {
				panic(fmt.Sprintf("expt: serving: warm fit at ratio %.3g took %d iterations, cold %d — warm must not cost more",
					r, warm.Iters, cold[i].Iters))
			}
			if warm.Iters < cold[i].Iters {
				strict++
			}
			totalCold += cold[i].Iters
			totalWarm += warm.Iters
			from = fmt.Sprintf("%.3g", warm.WarmFromLambda)
		}
		saved := 100 * (1 - float64(warm.Iters)/float64(cold[i].Iters))
		tbl.AddRow(fmt.Sprintf("%.3g", r), fmt.Sprintf("%d", cold[i].Iters),
			fmt.Sprintf("%d", warm.Iters), fmt.Sprintf("%.0f%%", saved), from)
	}
	if totalWarm >= totalCold {
		panic(fmt.Sprintf("expt: serving: warm path took %d iterations, cold %d — no aggregate saving", totalWarm, totalCold))
	}
	tbl.AddRow("total (warm-started)", fmt.Sprintf("%d", totalCold), fmt.Sprintf("%d", totalWarm),
		fmt.Sprintf("%.0f%%", 100*(1-float64(totalWarm)/float64(totalCold))),
		fmt.Sprintf("strict at %d/%d", strict, points-1))

	// Every point the sweep published is now certified in the cache: a
	// repeat must be answered without a solve — no iteration, no elapsed
	// time — and carry the publishing fit's w and objective bit for bit.
	for i, r := range ratios {
		req := &serve.FitRequest{Dataset: &dsRef, LambdaRatio: r, Procs: procs, ReturnW: true}
		again, pub := servingFit(ts.URL, req), warmFits[i]
		if again.AnsweredBy != "cache" || again.Iters != 0 || again.ElapsedMS != 0 || !again.PathCacheHit {
			panic(fmt.Sprintf("expt: serving: re-request at ratio %.3g was not a certified hit: answered by %s, %d iters, %g ms",
				r, again.AnsweredBy, again.Iters, again.ElapsedMS))
		}
		if bits(again.Objective) != bits(pub.Objective) || !sameBits(again.W, pub.W) {
			panic(fmt.Sprintf("expt: serving: re-request at ratio %.3g returned objective %.17g, published %.17g (or another w)",
				r, again.Objective, pub.Objective))
		}
	}
	tbl.AddRow("re-request (certified, no solve)", "-", "0", "100%",
		fmt.Sprintf("%d/%d bit-equal", points, points))
	return tbl
}

// servingFit POSTs one fit request and decodes the response, panicking
// on any failure (experiments assert, they do not degrade).
func servingFit(base string, req *serve.FitRequest) *serve.FitResponse {
	body, err := json.Marshal(req)
	if err != nil {
		panic("expt: serving: " + err.Error())
	}
	resp, err := http.Post(base+"/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		panic("expt: serving: " + err.Error())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("expt: serving: fit status %d", resp.StatusCode))
	}
	var fr serve.FitResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		panic("expt: serving: " + err.Error())
	}
	return &fr
}
