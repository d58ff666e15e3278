package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// getStats reads GET /stats.
func getStats(t *testing.T, client *http.Client, base string) serve.StatsSnapshot {
	t.Helper()
	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sn serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return sn
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// certifiedReq is the fit every certified-hit test repeats.
func certifiedReq() *serve.FitRequest {
	return &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, ReturnW: true}
}

// directZeroRound runs, outside the server, a world solve of smallRef
// at lambda warm-started at w on procs ranks (SolveDistributedContext,
// at the server's step size and tolerance): at a certified triple
// answer it stops before round 0 with the answer's bits, since the
// triple's certificate is the world's data pass.
func directZeroRound(t *testing.T, lambda float64, w []float64, procs int) *solver.Result {
	t.Helper()
	ref := smallRef()
	p, err := data.LoadWith(ref.Name, ref.Samples, ref.Features, ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.New(fastConfig()).Config()
	o := solver.Defaults()
	o.Lambda, o.W0 = lambda, w
	o.MaxIter, o.GradMapTol = cfg.MaxIter, cfg.GradMapTol
	// The server's per-dataset step size (8 power iterations, seed 777).
	o.Gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(p.X, p.Y, o.B, 8, 777))
	world, err := dist.NewWorldOn("chan", procs, perf.Comet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.SolveDistributedContext(context.Background(), world, p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCertifiedHitNeedsNoWorld: repeating a converged fit is answered
// from the lambda-path cache — zero rounds, zero elapsed and modeled
// time, one more certified hit — with the w and objective bits of the
// publishing fit, which are also the bits the zero-round solve returns.
// Every request the stored certificate does not cover runs a solve.
func TestCertifiedHitNeedsNoWorld(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	first := doFit(t, client, ts.URL, certifiedReq())
	if !first.Converged || first.Warm || first.ElapsedMS <= 0 {
		t.Fatalf("publishing fit: %+v", first)
	}
	again := doFit(t, client, ts.URL, certifiedReq())
	if again.ElapsedMS != 0 || again.ModelSeconds != 0 || again.Rounds != 0 || again.Iters != 0 {
		t.Fatalf("repeat ran a solve: elapsed %g ms, model %g s, %d rounds, %d iters",
			again.ElapsedMS, again.ModelSeconds, again.Rounds, again.Iters)
	}
	if !again.Converged || !again.Warm || !again.PathCacheHit || again.WarmFromLambda != first.Lambda || again.Partial {
		t.Fatalf("repeat flags: %+v", again)
	}
	if !sameBits(again.W, first.W) || !sameBits([]float64{again.Objective}, []float64{first.Objective}) || again.Nnz != first.Nnz {
		t.Fatalf("repeat objective %.17g nnz %d, publisher %.17g nnz %d (or w differs)",
			again.Objective, again.Nnz, first.Objective, first.Nnz)
	}
	if sn := getStats(t, client, ts.URL); sn.CertifiedHits != 1 || sn.WarmFits != 1 || sn.WarmIters != 0 ||
		sn.ColdFits != 1 || sn.ColdIters != int64(first.Iters) {
		t.Fatalf("stats after one hit: certified %d, warm %d (%d iters), cold %d (%d iters, publisher %d)",
			sn.CertifiedHits, sn.WarmFits, sn.WarmIters, sn.ColdFits, sn.ColdIters, first.Iters)
	}

	direct := directZeroRound(t, first.Lambda, first.W, fastConfig().Procs)
	if direct.Rounds != 0 || !direct.Converged {
		t.Fatalf("direct warm start at w: %d rounds, converged=%t", direct.Rounds, direct.Converged)
	}
	if !sameBits(direct.W, first.W) || !sameBits([]float64{direct.FinalObj}, []float64{first.Objective}) {
		t.Fatalf("zero-round solve objective %.17g, cached %.17g (or w differs)", direct.FinalObj, first.Objective)
	}

	// A hit's model predicts like the publisher's.
	rmse := func(id string) float64 {
		body, _ := json.Marshal(&serve.PredictRequest{ModelID: id, Dataset: smallRef()})
		status, raw := postJSON(t, client, ts.URL+"/predict", string(body))
		var pr serve.PredictResponse
		if status != http.StatusOK || json.Unmarshal(raw, &pr) != nil {
			t.Fatalf("predict %s: status %d %s", id, status, raw)
		}
		return pr.RMSE
	}
	if a, b := rmse(again.ModelID), rmse(first.ModelID); a != b {
		t.Fatalf("hit model RMSE %g, publisher %g", a, b)
	}

	off := false
	for _, tc := range []struct {
		name string
		// both edits the publishing fit and its repeat; again only the
		// repeat.
		both, again func(r *serve.FitRequest)
	}{
		{"neighbouring lambda", nil, func(r *serve.FitRequest) { r.LambdaRatio = 0.18 }},
		{"tighter gradmap_tol", nil, func(r *serve.FitRequest) { r.GradMapTol = direct.GradMap / 2 }},
		// Above lambda_max the optimum is w = 0 and its stored norm is 0,
		// which no tolerance can undercut: a request that disables the
		// stop must still run its budget.
		{"gradmap_tol disabled", func(r *serve.FitRequest) { r.LambdaRatio = 1.5 },
			func(r *serve.FitRequest) { r.GradMapTol, r.MaxIter = -1, 50 }},
		{"other procs", nil, func(r *serve.FitRequest) { r.Procs = 1 }},
		{"huber", func(r *serve.FitRequest) { r.Loss, r.LambdaRatio, r.MaxIter = "huber", 0.5, 1000 }, nil},
		{"warm=false", nil, func(r *serve.FitRequest) { r.Warm = &off }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, fastConfig())
			client := ts.Client()
			req := certifiedReq()
			if tc.both != nil {
				tc.both(req)
			}
			if pub := doFit(t, client, ts.URL, req); !pub.Converged {
				t.Fatalf("publishing fit did not converge: %+v", pub)
			}
			if tc.again != nil {
				tc.again(req)
			}
			got := doFit(t, client, ts.URL, req)
			if got.ElapsedMS <= 0 {
				t.Fatalf("answered without a solve: %+v", got)
			}
			if got.PathCacheHit != (req.Warm == nil) {
				t.Fatalf("path cache hit = %t: the entry must exist and only the certificate may refuse it", got.PathCacheHit)
			}
			if sn := getStats(t, client, ts.URL); sn.CertifiedHits != 0 {
				t.Fatalf("certified hits = %d", sn.CertifiedHits)
			}
		})
	}
}

// TestCertifiedHitsConcurrent runs hits, publishes at the hit's lambda
// and predictions on a hit's model at once (the CI serving job runs it
// under -race): every reply is a 200, every hit is zero-round with one
// of the published objectives, and the counters balance.
func TestCertifiedHitsConcurrent(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers, cfg.QueueCap = 4, 64
	sv, ts := newTestServer(t, cfg)
	client := ts.Client()
	first := doFit(t, client, ts.URL, certifiedReq())
	hit := doFit(t, client, ts.URL, certifiedReq())
	if hit.Rounds != 0 || hit.ElapsedMS != 0 {
		t.Fatalf("repeat was not a certified hit: %+v", hit)
	}

	const perG = 4
	off := false
	var mu sync.Mutex
	objectives := map[float64]bool{first.Objective: true}
	var hitObjs []float64
	var wg sync.WaitGroup
	errs := make(chan error, 16*perG)
	run := func(do func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := do(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	post := func(path string, v any) ([]byte, error) {
		body, _ := json.Marshal(v)
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
		return raw, err
	}
	fit := func(req *serve.FitRequest) (*serve.FitResponse, error) {
		raw, err := post("/fit", req)
		if err != nil {
			return nil, err
		}
		var fr serve.FitResponse
		return &fr, json.Unmarshal(raw, &fr)
	}
	for g := 0; g < 4; g++ {
		run(func() error {
			fr, err := fit(certifiedReq())
			if err != nil {
				return err
			}
			if fr.Rounds == 0 && fr.ElapsedMS == 0 {
				mu.Lock()
				hitObjs = append(hitObjs, fr.Objective)
				mu.Unlock()
			}
			return nil
		})
	}
	for g := 0; g < 2; g++ {
		run(func() error {
			req := certifiedReq()
			req.Warm = &off
			fr, err := fit(req)
			if err != nil {
				return err
			}
			mu.Lock()
			objectives[fr.Objective] = true
			mu.Unlock()
			return nil
		})
		run(func() error {
			_, err := post("/predict", &serve.PredictRequest{ModelID: hit.ModelID, Dataset: smallRef()})
			return err
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, f := range hitObjs {
		if !objectives[f] {
			t.Errorf("hit objective %.17g was never published", f)
		}
	}
	sn := sv.Stats().Snapshot()
	if sn.CertifiedHits != int64(1+len(hitObjs)) {
		t.Errorf("certified hits %d, observed %d", sn.CertifiedHits, 1+len(hitObjs))
	}
	if sn.WarmFits+sn.ColdFits != sn.Fits {
		t.Errorf("warm %d + cold %d != fits %d", sn.WarmFits, sn.ColdFits, sn.Fits)
	}
}
