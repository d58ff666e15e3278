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

// tripleAt answers, outside the server, a smallRef fit at lambda with
// the server's options from SolveTriple warm-started at w on a fresh
// procs-rank triple: at a certified triple answer it certifies before
// its first iteration with the answer's bits, since the certificate is
// a pure function of the triple and w.
func tripleAt(t *testing.T, lambda float64, w []float64, procs int) *solver.Result {
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
	res, err := solver.SolveTriple(context.Background(), solver.FillTriple(p.X, p.Y, procs, nil), perf.Comet(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCertifiedHitNeedsNoWorld: repeating a converged fit is answered
// from the lambda-path cache — zero rounds, zero elapsed and modeled
// time, one more certified hit — with the w, objective and gradmap bits
// of the publishing fit, which are also the bits SolveTriple
// warm-started at w returns after 0 iterations. Every request the
// stored certificate does not cover runs a solve.
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

	direct := tripleAt(t, first.Lambda, first.W, fastConfig().Procs)
	if direct.Iters != 0 || direct.Rounds != 0 || !direct.Converged {
		t.Fatalf("triple warm-started at w: %d iters, %d rounds, converged=%t", direct.Iters, direct.Rounds, direct.Converged)
	}
	if !sameBits(direct.W, first.W) || !sameBits([]float64{direct.FinalObj, direct.GradMap}, []float64{first.Objective, first.GradMap}) ||
		!sameBits([]float64{again.GradMap}, []float64{first.GradMap}) {
		t.Fatalf("warm-started triple objective %.17g gradmap %.17g; publisher %.17g, %.17g; hit gradmap %.17g (or w differs)",
			direct.FinalObj, direct.GradMap, first.Objective, first.GradMap, again.GradMap)
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
		// Above lambda_max the optimum is w = 0 and its stored bound is
		// tiny: a request that disables the stop must still run its
		// budget.
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

// TestReplyCarriesCertificate: every converged triple reply carries
// its certificate, 0 < gradmap ≤ gradmap_tol (the server's or the
// request's), and a certified hit carries its publisher's bits; a reply
// that certified nothing — a short budget, a proximal Newton fit —
// carries no gradmap field.
func TestReplyCarriesCertificate(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	serverTol := serve.New(fastConfig()).Config().GradMapTol
	first := doFit(t, client, ts.URL, certifiedReq())
	if hit := doFit(t, client, ts.URL, certifiedReq()); hit.AnsweredBy != "cache" || !sameBits([]float64{hit.GradMap}, []float64{first.GradMap}) {
		t.Fatalf("repeat answered by %s with gradmap %.17g; publisher %.17g", hit.AnsweredBy, hit.GradMap, first.GradMap)
	}
	for _, tc := range []struct {
		name string
		edit func(r *serve.FitRequest)
		// certified: the reply must converge and carry gradmap.
		certified bool
	}{
		{"hit again", func(r *serve.FitRequest) {}, true},
		{"warm neighbour", func(r *serve.FitRequest) { r.LambdaRatio = 0.18 }, true},
		{"en", func(r *serve.FitRequest) { r.Reg, r.L2 = "en", 0.01 }, true},
		{"ridge", func(r *serve.FitRequest) { r.Reg, r.L2 = "ridge", 0.05 }, true},
		{"group", func(r *serve.FitRequest) { r.Reg, r.Groups = "group", "size:2" }, true},
		{"tighter tol", func(r *serve.FitRequest) { r.LambdaRatio, r.GradMapTol = 0.3, 1e-8 }, true},
		{"short budget", func(r *serve.FitRequest) { r.LambdaRatio, r.MaxIter = 0.05, 3 }, false},
		{"huber", func(r *serve.FitRequest) { r.Loss, r.LambdaRatio, r.MaxIter = "huber", 0.5, 1000 }, false},
	} {
		req := certifiedReq()
		tc.edit(req)
		raw := fitRaw(t, client, ts.URL, req)
		var fr serve.FitResponse
		if err := json.Unmarshal(raw, &fr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tol := serverTol
		if req.GradMapTol > 0 {
			tol = req.GradMapTol
		}
		if tc.certified && !(fr.Converged && fr.GradMap > 0 && fr.GradMap <= tol) {
			t.Fatalf("%s: answered by %s, converged %t, gradmap %g (tolerance %g)", tc.name, fr.AnsweredBy, fr.Converged, fr.GradMap, tol)
		}
		if !tc.certified && bytes.Contains(raw, []byte(`"gradmap"`)) {
			t.Fatalf("%s: a reply that certified nothing carries a gradmap: %s", tc.name, raw)
		}
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
