package serve_test

import (
	"context"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// TestTripleRouting is the routing table: every least-squares fit is
// answered from the triple — no rounds, counted in triple_fits,
// certified unless its stop is disabled (nothing to certify: it runs
// max_iter iterations) — for every regularizer, world size and seed;
// every other loss, with or without a sampling rate, runs proximal
// Newton on a world.
func TestTripleRouting(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	off := false
	for _, tc := range []struct {
		name string
		edit func(r *serve.FitRequest)
		want string
	}{
		{"l1", func(r *serve.FitRequest) {}, "triple"},
		{"ls", func(r *serve.FitRequest) { r.Loss = "ls" }, "triple"},
		{"en", func(r *serve.FitRequest) { r.Reg, r.L2 = "en", 0.01 }, "triple"},
		{"ridge", func(r *serve.FitRequest) { r.Reg, r.L2 = "ridge", 0.05 }, "triple"},
		{"group", func(r *serve.FitRequest) { r.Reg, r.Groups = "group", "size:2" }, "triple"},
		{"other procs", func(r *serve.FitRequest) { r.Procs = 1 }, "triple"},
		{"seed", func(r *serve.FitRequest) { r.Seed = 9 }, "triple"},
		{"gradmap_tol disabled", func(r *serve.FitRequest) { r.GradMapTol, r.MaxIter = -1, 200 }, "triple"},
		{"huber", func(r *serve.FitRequest) { r.Loss, r.MaxIter = "huber", 1000 }, "world"},
		{"huber b", func(r *serve.FitRequest) { r.Loss, r.MaxIter, r.B = "huber", 1000, 0.5 }, "world"},
		{"quantile", func(r *serve.FitRequest) { r.Loss = "quantile" }, "world"},
		{"logistic", func(r *serve.FitRequest) { r.Loss = "logistic" }, "world"},
	} {
		req := &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Warm: &off, NoStore: true}
		tc.edit(req)
		before := getStats(t, client, ts.URL)
		got := doFit(t, client, ts.URL, req)
		after := getStats(t, client, ts.URL)
		if got.AnsweredBy != tc.want {
			t.Fatalf("%s: answered by %q, want %q", tc.name, got.AnsweredBy, tc.want)
		}
		triple := after.TripleFits - before.TripleFits
		budget := fastConfig().MaxIter
		if req.MaxIter > 0 {
			budget = req.MaxIter
		}
		if tc.want == "triple" && (triple != 1 || got.Rounds != 0 || got.Converged != (req.GradMapTol >= 0) ||
			got.Iters == 0 || got.Iters > budget) {
			t.Fatalf("%s: triple_fits +%d, %d rounds, %d iters, converged %t",
				tc.name, triple, got.Rounds, got.Iters, got.Converged)
		}
		if tc.want == "world" && (triple != 0 || got.Rounds == 0) {
			t.Fatalf("%s: a world fit counted as a triple fit (+%d) or ran no round (%d)", tc.name, triple, got.Rounds)
		}
	}
}

// serverOpts are the solver options the test server resolves for a
// smallRef fit at lambda with the request defaults.
func serverOpts(t *testing.T, lambda float64, maxIter int) (*data.Problem, solver.Options) {
	t.Helper()
	ref := smallRef()
	p, err := data.LoadWith(ref.Name, ref.Samples, ref.Features, ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.New(fastConfig()).Config()
	o := solver.Defaults()
	o.Lambda, o.MaxIter, o.GradMapTol = lambda, maxIter, cfg.GradMapTol
	// The server's per-dataset step size (the default rate b = 0.1, 8
	// power iterations, seed 777).
	o.Gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(p.X, p.Y, o.B, 8, 777))
	return p, o
}

// TestTripleMaxIter: a triple-routed fit whose max_iter is too small to
// certify is answered by the triple, unconverged, after exactly max_iter
// iterations and no round — bit for bit SolveTriple's answer at the
// server's options — and is not published.
func TestTripleMaxIter(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	req := &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, MaxIter: 12, ReturnW: true}
	got := doFit(t, client, ts.URL, req)
	if got.AnsweredBy != "triple" || got.Converged || got.Iters != req.MaxIter || got.Rounds != 0 {
		t.Fatalf("short fit answered by %q, converged %t, %d iters, %d rounds", got.AnsweredBy, got.Converged, got.Iters, got.Rounds)
	}

	p, o := serverOpts(t, got.Lambda, req.MaxIter)
	want, err := solver.SolveTriple(context.Background(), p.X, p.Y, fastConfig().Procs, perf.Comet(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.W, want.W) || !sameBits([]float64{got.Objective}, []float64{want.FinalObj}) || got.Iters != want.Iters {
		t.Fatalf("short fit: %d iters, objective %.17g; SolveTriple %d iters, %.17g (or w differs)",
			got.Iters, got.Objective, want.Iters, want.FinalObj)
	}
	if again := doFit(t, client, ts.URL, req); again.PathCacheHit {
		t.Fatal("an unconverged triple answer was published")
	}
}

// TestTripleDeadlinePartial: a triple-routed fit that cannot certify
// before its deadline comes back a well-formed partial, answered by the
// triple, and is never published to the λ-path cache.
func TestTripleDeadlinePartial(t *testing.T) {
	sv, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	req := &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.1, MaxIter: 1 << 30, GradMapTol: 1e-300, DeadlineMS: 100}
	fr := doFit(t, client, ts.URL, req)
	if !fr.Partial || fr.Converged || fr.AnsweredBy != "triple" || !strings.Contains(fr.Error, "deadline") ||
		fr.ModelID == "" || fr.Iters == 0 || math.IsNaN(fr.Objective) {
		t.Fatalf("deadline-bounded triple fit: %+v", fr)
	}
	sn := sv.Stats().Snapshot()
	if sn.Deadlines != 1 || sn.PartialFits != 1 || sn.TripleFits != 1 || sn.ColdFits != 0 {
		t.Fatalf("counters: deadlines %d partial %d triple %d cold %d", sn.Deadlines, sn.PartialFits, sn.TripleFits, sn.ColdFits)
	}
	req.GradMapTol, req.MaxIter, req.DeadlineMS = 0, 0, 0
	if got := doFit(t, client, ts.URL, req); got.PathCacheHit || got.Warm {
		t.Fatalf("a partial triple fit was published: %+v", got)
	}
}

// TestTripleCertifiedRepeat: a repeat of a triple-answered fit is a
// certified hit on its entry — no solve, the publisher's w and
// objective bits, answered by the cache.
func TestTripleCertifiedRepeat(t *testing.T) {
	sv, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	first := doFit(t, client, ts.URL, certifiedReq())
	if first.AnsweredBy != "triple" || !first.Converged {
		t.Fatalf("publishing fit: %+v", first)
	}
	again := doFit(t, client, ts.URL, certifiedReq())
	if again.AnsweredBy != "cache" || again.ElapsedMS != 0 || again.Iters != 0 || !sameBits(again.W, first.W) ||
		!sameBits([]float64{again.Objective}, []float64{first.Objective}) {
		t.Fatalf("repeat of a triple answer: %+v", again)
	}
	if sn := sv.Stats().Snapshot(); sn.CertifiedHits != 1 || sn.TripleFits != 1 || sn.GramFills != 1 {
		t.Fatalf("counters: certified %d triple %d fills %d", sn.CertifiedHits, sn.TripleFits, sn.GramFills)
	}
}

// coldGridFields matches the reply fields a fit on a fresh server may
// differ in: the work it did and the server's history.
var coldGridFields = regexp.MustCompile(`"(elapsed_ms|model_seconds|model_id|dataset_cache_hit)":[^,}]*`)

// TestTripleFreshServersAgree: a serve_cold-style grid — warm=false,
// out of order, on one server whose first fit fills the triple and
// whose later fits read it — answers every point bit for bit as a fresh
// server does, where that point's fit fills the triple itself. The
// grid fills once and every fit is a triple fit.
func TestTripleFreshServersAgree(t *testing.T) {
	ref := &serve.DatasetRef{Name: "covtype", Samples: 1200, Features: 54, Seed: 1}
	off := false
	req := func(i int) *serve.FitRequest {
		ratio := math.Exp(math.Log(0.11) + (math.Log(0.09)-math.Log(0.11))*float64(i)/7)
		return &serve.FitRequest{Dataset: ref, LambdaRatio: ratio, Warm: &off, ReturnW: true}
	}
	sv, ts := newTestServer(t, fastConfig())
	for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		shared := fitRaw(t, ts.Client(), ts.URL, req(i))
		_, fresh := newTestServer(t, fastConfig())
		own := fitRaw(t, fresh.Client(), fresh.URL, req(i))
		var fr serve.FitResponse
		if err := json.Unmarshal(shared, &fr); err != nil || fr.AnsweredBy != "triple" || !fr.Converged {
			t.Fatalf("point %d: %v, %s", i, err, shared)
		}
		if a, b := coldGridFields.ReplaceAll(shared, nil), coldGridFields.ReplaceAll(own, nil); string(a) != string(b) {
			t.Fatalf("point %d: shared server\n%s\nfresh server\n%s", i, a, b)
		}
	}
	if sn := sv.Stats().Snapshot(); sn.GramFills != 1 || sn.TripleFits != 8 {
		t.Fatalf("grid: %d fills, %d triple fits", sn.GramFills, sn.TripleFits)
	}
}
