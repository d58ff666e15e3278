package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/serve"
)

// fastConfig keeps test solves tiny: small default budget, short
// default deadline, two-rank worlds.
func fastConfig() serve.Config {
	return serve.Config{
		Workers:  2,
		QueueCap: 4,
		Procs:    2,
		MaxIter:  4000,
	}
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	sv := serve.New(cfg)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sv.Close()
	})
	return sv, ts
}

// smallRef is the dataset every test fit trains on — tiny so a solve
// takes milliseconds.
func smallRef() *serve.DatasetRef {
	return &serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}
}

func postJSON(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

func doFit(t *testing.T, client *http.Client, base string, req *serve.FitRequest) *serve.FitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	status, raw := postJSON(t, client, base+"/fit", string(body))
	if status != http.StatusOK {
		t.Fatalf("fit status %d: %s", status, raw)
	}
	var fr serve.FitResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatalf("decode fit response: %v", err)
	}
	return &fr
}

// TestFitRejectsMalformedRequests is the table of client errors: every
// malformed request must fail fast with the right status and must not
// consume solver budget.
func TestFitRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"bad json", "/fit", `{"dataset":`, 400},
		{"unknown field", "/fit", `{"bogus": 1}`, 400},
		{"no dataset", "/fit", `{"lambda_ratio": 0.1}`, 400},
		{"dataset and libsvm", "/fit", `{"dataset": {"name": "abalone"}, "libsvm": "1 1:0.5", "lambda": 0.1}`, 400},
		{"unknown dataset", "/fit", `{"dataset": {"name": "imagenet"}, "lambda_ratio": 0.1}`, 404},
		{"no lambda", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}}`, 400},
		{"both lambdas", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "lambda_ratio": 0.1}`, 400},
		{"negative lambda", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": -1}`, 400},
		{"unknown solver", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda_ratio": 0.1, "solver": "adam"}`, 400},
		{"b out of range", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda_ratio": 0.1, "b": 1.5}`, 400},
		{"procs out of range", "/fit", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda_ratio": 0.1, "procs": 99}`, 400},
		{"bad libsvm", "/fit", `{"libsvm": "not libsvm at all :::", "lambda": 0.1}`, 400},
		{"nan libsvm value", "/fit", `{"libsvm": "1 1:0.5\n1 1:nan", "lambda": 0.1}`, 400},
		{"inf libsvm label", "/fit", `{"libsvm": "inf 1:0.5", "lambda": 0.1}`, 400},
		{"predict no model", "/predict", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}}`, 400},
		{"predict model and w", "/predict", `{"model_id": "m00000001", "w": [1], "dataset": {"name": "abalone", "samples": 200, "seed": 7}}`, 400},
		{"predict unknown model", "/predict", `{"model_id": "m99999999", "dataset": {"name": "abalone", "samples": 200, "seed": 7}}`, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, client, ts.URL+tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.want, raw)
			}
			var er struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not JSON with a message: %s", raw)
			}
		})
	}

	// Non-POST methods are rejected on both solver endpoints.
	for _, path := range []string{"/fit", "/predict"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestFitPredictRoundTrip drives the happy path: fit by dataset ref,
// predict by model id, predict with an inline coefficient vector, and
// fit from inline LIBSVM text.
func TestFitPredictRoundTrip(t *testing.T) {
	sv, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	fr := doFit(t, client, ts.URL, &serve.FitRequest{
		Dataset: smallRef(), LambdaRatio: 0.2, ReturnW: true,
	})
	if fr.ModelID == "" || fr.Lambda <= 0 || len(fr.W) == 0 {
		t.Fatalf("fit response incomplete: %+v", fr)
	}
	if fr.Warm || fr.PathCacheHit {
		t.Fatalf("first fit cannot be warm: %+v", fr)
	}

	// Predict via the stored model.
	body, _ := json.Marshal(&serve.PredictRequest{ModelID: fr.ModelID, Dataset: smallRef()})
	status, raw := postJSON(t, client, ts.URL+"/predict", string(body))
	if status != http.StatusOK {
		t.Fatalf("predict status %d: %s", status, raw)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("decode predict: %v", err)
	}
	if len(pr.Predictions) != 200 {
		t.Fatalf("got %d predictions, want 200", len(pr.Predictions))
	}

	// Predict with the returned coefficients inline must agree.
	body, _ = json.Marshal(&serve.PredictRequest{W: fr.W, Dataset: smallRef()})
	status, raw = postJSON(t, client, ts.URL+"/predict", string(body))
	if status != http.StatusOK {
		t.Fatalf("inline predict status %d: %s", status, raw)
	}
	var pr2 serve.PredictResponse
	if err := json.Unmarshal(raw, &pr2); err != nil {
		t.Fatalf("decode inline predict: %v", err)
	}
	if pr2.RMSE != pr.RMSE {
		t.Fatalf("inline RMSE %g != model RMSE %g", pr2.RMSE, pr.RMSE)
	}

	// Inline LIBSVM data: 4 samples, 2 features.
	libsvm := "1.0 1:1 2:0.5\n-1.0 1:-1\n0.5 2:1\n-0.5 1:0.2 2:-1\n"
	fr2 := doFit(t, client, ts.URL, &serve.FitRequest{LIBSVM: libsvm, Lambda: 0.05})
	if fr2.ModelID == "" {
		t.Fatalf("libsvm fit returned no model: %+v", fr2)
	}

	sn := sv.Stats().Snapshot()
	if sn.Fits != 2 || sn.Predicts != 2 {
		t.Fatalf("stats fits=%d predicts=%d, want 2/2", sn.Fits, sn.Predicts)
	}
}

// TestWarmStartOverHTTP checks the lambda-path cache contract at the
// service boundary: a second fit at a neighboring lambda reports a
// cache hit and spends no more iterations than its cold twin; warm=false
// forces a cold solve even with a populated cache.
func TestWarmStartOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cold := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.3})
	if cold.Warm {
		t.Fatal("first fit reported warm")
	}
	warm := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25})
	if !warm.Warm || !warm.PathCacheHit || warm.WarmFromLambda != cold.Lambda {
		t.Fatalf("neighboring fit not warm-started: %+v", warm)
	}
	if !warm.DatasetCacheHit {
		t.Fatal("second fit missed the dataset cache")
	}

	off := false
	forced := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25, Warm: &off})
	if forced.Warm || forced.PathCacheHit {
		t.Fatalf("warm=false still warm-started: %+v", forced)
	}
	if warm.Iters > forced.Iters {
		t.Fatalf("warm fit took %d iterations, cold twin %d — warm must not cost more", warm.Iters, forced.Iters)
	}
}

// TestRetiredFitFields: the fields no /fit engine reads — the world's
// engine and sampling setup — are unknown to the strict decoder, every
// spelling of compress_tier included: each is a 400 naming it, and no
// dataset is loaded. b and seed are the feature table's to refuse beside
// least squares, which reads every sample and draws none, and still
// reach proximal Newton.
func TestRetiredFitFields(t *testing.T) {
	sv, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	const head = `{"dataset": {"name": "abalone", "samples": 200, "features": 8, "seed": 7}, "lambda_ratio": 0.2, `
	for _, tc := range []struct {
		field, body string
	}{
		{"solver", `"solver": "rcsfista"`},
		{"solver", `"solver": "fista"`},
		{"k", `"k": 2`},
		{"s", `"s": 2`},
		{"epoch_len", `"epoch_len": 5`},
		{"active_set", `"active_set": true`},
		{"compress_tier", `"compress_tier": "off"`},
		{"compress_tier", `"compress_tier": "f32"`},
		{"b", `"b": 0.1`},
		{"b", `"loss": "ls", "b": 1`},
		{"seed", `"seed": 9`},
	} {
		status, raw := postJSON(t, client, ts.URL+"/fit", head+tc.body+"}")
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &er); err != nil || status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, %s; want a 400", tc.body, status, raw)
		}
		named := strings.Contains(er.Error, `unknown field "`+tc.field+`"`)
		if tc.field == "b" || tc.field == "seed" {
			named = strings.HasPrefix(er.Error, tc.field+" does not apply to loss ls")
		}
		if !named {
			t.Fatalf("%s: %q does not name %s", tc.body, er.Error, tc.field)
		}
		if sn := sv.Stats().Snapshot(); sn.DatasetMisses != 0 || sn.DatasetHits != 0 {
			t.Fatalf("%s: the refused fit resolved a dataset (%d misses, %d hits)", tc.body, sn.DatasetMisses, sn.DatasetHits)
		}
	}
	huber := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Loss: "huber", B: 0.3, Seed: 9, MaxIter: 50})
	if huber.AnsweredBy != "world" || huber.ModelID == "" {
		t.Fatalf("huber fit at b = 0.3, seed 9: %+v", huber)
	}
}

// TestBadFitLoadsNothing: a fit whose request alone is malformed — a
// negative or doubled penalty, b or procs out of range — is refused
// before its dataset is resolved: with room for one dataset, a bad fit
// naming a second one loads nothing and evicts nothing, and the first
// dataset still hits.
func TestBadFitLoadsNothing(t *testing.T) {
	cfg := fastConfig()
	cfg.DatasetCap = 1
	sv, ts := newTestServer(t, cfg)
	client := ts.Client()
	doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2})
	const other = `{"dataset": {"name": "abalone", "samples": 120, "features": 6, "seed": 3}, `
	for _, body := range []string{
		other + `"lambda": -1}`,
		other + `"lambda_ratio": -0.1}`,
		other + `"lambda": 0.1, "lambda_ratio": 0.1}`,
		other + `"lambda_ratio": 0.2, "procs": 99}`,
		other + `"lambda_ratio": 0.2, "procs": -1}`,
		other + `"lambda_ratio": 0.2, "loss": "huber", "b": 1.5}`,
		other + `"lambda_ratio": 0.2, "loss": "huber", "b": -0.5}`,
	} {
		if status, raw := postJSON(t, client, ts.URL+"/fit", body); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, %s; want a 400", body, status, raw)
		}
	}
	if sn := sv.Stats().Snapshot(); sn.DatasetMisses != 1 || sn.DatasetEvictions != 0 {
		t.Fatalf("bad fits moved the dataset cache: %d misses, %d evictions", sn.DatasetMisses, sn.DatasetEvictions)
	}
	if again := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.3}); !again.DatasetCacheHit {
		t.Fatal("the first dataset was evicted by a refused fit")
	}
}

// slowFit is a request that cannot finish inside the test's patience:
// a big iteration budget with early stopping disabled.
func slowFit(deadlineMS int) *serve.FitRequest {
	return &serve.FitRequest{
		Dataset:     smallRef(),
		LambdaRatio: 0.1,
		MaxIter:     50_000_000,
		GradMapTol:  -1,
		DeadlineMS:  deadlineMS,
	}
}

// TestDeadlineReturnsPartialResult: a fit whose deadline expires
// mid-solve must come back 200 with Partial=true and a well-formed
// model — bounded work, not an error.
func TestDeadlineReturnsPartialResult(t *testing.T) {
	sv, ts := newTestServer(t, fastConfig())
	fr := doFit(t, ts.Client(), ts.URL, slowFit(150))
	if !fr.Partial {
		t.Fatalf("deadline-bounded fit not partial: %+v", fr)
	}
	if !strings.Contains(fr.Error, "deadline") {
		t.Fatalf("partial error = %q, want deadline cause", fr.Error)
	}
	if fr.ModelID == "" || fr.Converged {
		t.Fatalf("partial result malformed: %+v", fr)
	}
	sn := sv.Stats().Snapshot()
	if sn.Deadlines != 1 {
		t.Fatalf("deadlines counter = %d, want 1", sn.Deadlines)
	}
	// A clipped solve is a partial, not a cold fit: its iteration count
	// reflects the deadline and must not pollute the warm/cold
	// economics.
	if sn.PartialFits != 1 || sn.ColdFits != 0 || sn.ColdIters != 0 || sn.WarmFits != 0 {
		t.Fatalf("partial fit leaked into warm/cold counters: partial=%d cold=%d coldIters=%d warm=%d",
			sn.PartialFits, sn.ColdFits, sn.ColdIters, sn.WarmFits)
	}
}

// waitForStats polls /stats until cond holds or the timeout expires.
func waitForStats(t *testing.T, sv *serve.Server, cond func(serve.StatsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(sv.Stats().Snapshot()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("stats condition not reached: %+v", sv.Stats().Snapshot())
}

// TestAdmissionControl429: with one worker and a one-slot queue, a
// third concurrent fit must be turned away with 429 immediately. The
// two fits holding the window carry the longest deadline the server
// grants and are released by the test, through their request contexts,
// once the 429 is in hand — nothing here depends on how long anything
// takes.
func TestAdmissionControl429(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueCap = 1
	cfg.MaxDeadline = time.Minute
	sv, ts := newTestServer(t, cfg)
	client := ts.Client()

	ctx, release := context.WithCancel(context.Background())
	defer release()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(slowFit(int(cfg.MaxDeadline / time.Millisecond)))
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/fit", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
	}
	// One running, one queued — the admission window is full.
	waitForStats(t, sv, func(sn serve.StatsSnapshot) bool {
		return sn.ActiveFits == 1 && sn.QueuedFits == 1
	})

	body, _ := json.Marshal(slowFit(1500))
	status, raw := postJSON(t, client, ts.URL+"/fit", string(body))
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow fit status = %d, want 429 (body %s)", status, raw)
	}
	release()
	wg.Wait()
	waitForStats(t, sv, func(sn serve.StatsSnapshot) bool {
		return sn.ActiveFits == 0 && sn.QueuedFits == 0
	})
	sn := sv.Stats().Snapshot()
	if sn.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", sn.Rejected)
	}
	if sn.BadRequests != 0 {
		t.Fatalf("429 must not count as a bad request (got %d)", sn.BadRequests)
	}
}

// TestClientDisconnectReleasesSolve is the cancellation-propagation
// contract: a client that walks away mid-solve must tear the solve
// down through the round-boundary consensus without leaking a single
// rank goroutine.
func TestClientDisconnectReleasesSolve(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	sv, ts := newTestServer(t, cfg)
	client := ts.Client()

	// Warm up: load the dataset and settle keep-alive connections so the
	// baseline covers steady state.
	doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.3})
	client.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(slowFit(30_000))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/fit", bytes.NewReader(body))
		if err != nil {
			errc <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			errc <- fmt.Errorf("cancelled fit returned status %d", resp.StatusCode)
			return
		}
		errc <- nil
	}()

	waitForStats(t, sv, func(sn serve.StatsSnapshot) bool { return sn.ActiveFits == 1 })
	cancel()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The solve must drain: active count back to zero, rank goroutines
	// and the abandoned connection gone.
	waitForStats(t, sv, func(sn serve.StatsSnapshot) bool { return sn.ActiveFits == 0 })
	client.CloseIdleConnections()
	dist.VerifyNoGoroutineLeaks(t, baseline)
}

// TestConcurrentFitSoak hammers the service from many goroutines, half
// on the triple and half on worlds (run under -race in make check and
// the CI serving job): every request must come back 200 and the
// bookkeeping must balance.
func TestConcurrentFitSoak(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 4
	cfg.QueueCap = 64
	sv, ts := newTestServer(t, cfg)
	client := ts.Client()

	const goroutines, perG = 8, 4
	ratios := []float64{0.5, 0.35, 0.25, 0.18}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := &serve.FitRequest{
					Dataset:     smallRef(),
					LambdaRatio: ratios[i%len(ratios)],
				}
				if g%2 == 0 {
					req.Loss, req.MaxIter = "huber", 200
				}
				body, err := json.Marshal(req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := client.Post(ts.URL+"/fit", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var fr serve.FitResponse
				derr := json.NewDecoder(resp.Body).Decode(&fr)
				resp.Body.Close()
				if derr != nil {
					errs <- derr
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d request %d: status %d", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	sn := sv.Stats().Snapshot()
	if sn.Fits != goroutines*perG {
		t.Fatalf("fits = %d, want %d", sn.Fits, goroutines*perG)
	}
	if sn.ActiveFits != 0 || sn.QueuedFits != 0 {
		t.Fatalf("gauges not drained: active=%d queued=%d", sn.ActiveFits, sn.QueuedFits)
	}
	if sn.WarmFits+sn.ColdFits != sn.Fits {
		t.Fatalf("warm %d + cold %d != fits %d", sn.WarmFits, sn.ColdFits, sn.Fits)
	}
}

// TestStatsAndHealthEndpoints pins the monitoring surface.
func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sn serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatalf("stats not a snapshot: %v", err)
	}
}
