package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/hpcgo/rcsfista/internal/serve"
)

// TestScenarioFitMatrix drives one fit per scenario-matrix cell the
// service exposes beyond the default l1 least squares: every cell must
// come back 200 with a usable model.
func TestScenarioFitMatrix(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cases := []struct {
		name string
		req  *serve.FitRequest
	}{
		{"en", &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Reg: "en", L2: 0.01}},
		{"en-activeset", &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Reg: "en", L2: 0.01, ActiveSet: true}},
		{"ridge", &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Reg: "ridge", L2: 0.05}},
		{"group", &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.2, Reg: "group", Groups: "size:2"}},
		{"huber", &serve.FitRequest{Dataset: smallRef(), Lambda: 0.01, Loss: "huber", HuberDelta: 1}},
		{"quantile", &serve.FitRequest{Dataset: smallRef(), Lambda: 0.01, Loss: "quantile", QuantileTau: 0.7}},
		{"logistic", &serve.FitRequest{Dataset: smallRef(), Lambda: 0.01, Loss: "logistic"}},
		{"huber-group", &serve.FitRequest{Dataset: smallRef(), Lambda: 0.01, Loss: "huber", Reg: "group", Groups: "size:2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := doFit(t, client, ts.URL, tc.req)
			if fr.ModelID == "" || fr.Partial {
				t.Fatalf("scenario fit incomplete: %+v", fr)
			}
			// The fitted model must be servable.
			body, _ := json.Marshal(&serve.PredictRequest{ModelID: fr.ModelID, Dataset: smallRef()})
			status, raw := postJSON(t, client, ts.URL+"/predict", string(body))
			if status != http.StatusOK {
				t.Fatalf("predict status %d: %s", status, raw)
			}
		})
	}
}

// TestScenarioRejections pins the 400 surface of the reg/loss block.
func TestScenarioRejections(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cases := []struct {
		name string
		body string
	}{
		{"unknown reg", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "reg": "l0"}`},
		{"en without l2", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "reg": "en"}`},
		{"group without groups", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "reg": "group"}`},
		{"bad groups spec", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "reg": "group", "groups": "size:0"}`},
		{"l2 with default reg", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "l2": 0.5}`},
		{"unknown loss", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "loss": "hinge"}`},
		{"loss with solver", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "loss": "huber", "solver": "fista"}`},
		{"loss with active_set", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "loss": "huber", "active_set": true}`},
		{"activeset ridge", `{"dataset": {"name": "abalone", "samples": 200, "seed": 7}, "lambda": 0.1, "reg": "ridge", "l2": 0.5, "active_set": true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, client, ts.URL+"/fit", tc.body)
			if status != 400 {
				t.Fatalf("status = %d, want 400 (body %s)", status, raw)
			}
		})
	}
}

// TestScenarioIsolatesWarmStarts is the cache-poisoning contract of the
// extended fingerprint: a huber fit must never warm-start an l1
// least-squares fit (or vice versa), and an elastic-net fit must not
// share the l1 population either — their optima differ. Same-scenario
// refits at neighboring lambdas still warm-start.
func TestScenarioIsolatesWarmStarts(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cold := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.3})
	if cold.Warm {
		t.Fatal("first l1 fit reported warm")
	}

	// A huber fit at a neighboring lambda sees a different fingerprint:
	// cold, despite the populated l1 path.
	huber := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25, Loss: "huber", HuberDelta: 1})
	if huber.Warm || huber.PathCacheHit {
		t.Fatalf("huber fit warm-started from an l1 entry: %+v", huber)
	}
	// Same for elastic net against the l1 population.
	en := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25, Reg: "en", L2: 0.01})
	if en.Warm || en.PathCacheHit {
		t.Fatalf("en fit warm-started from an l1 entry: %+v", en)
	}

	// The l1 population itself is intact: a neighboring l1 fit warms.
	warm := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25})
	if !warm.Warm || warm.WarmFromLambda != cold.Lambda {
		t.Fatalf("l1 fit missed its own cache population: %+v", warm)
	}
	// And scenarios warm-start within their own family too.
	if huber.Converged {
		huber2 := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.22, Loss: "huber", HuberDelta: 1})
		if !huber2.Warm || huber2.WarmFromLambda != huber.Lambda {
			t.Fatalf("huber fit missed its own cache population: %+v", huber2)
		}
		// A different huber knee is a different optimum: no sharing.
		huber3 := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.22, Loss: "huber", HuberDelta: 2})
		if huber3.Warm || huber3.PathCacheHit {
			t.Fatalf("huber delta=2 warm-started from delta=1: %+v", huber3)
		}
	}
}

// TestCompressTierSpellingsShareWarmStarts: "", "off" and "f64" are
// one option value (solver.CanonicalTier), so requests spelling the
// uncompressed tier differently must share one λ-path population; a
// genuinely compressed tier lands near-identical but not bit-identical
// optima and keeps its own.
func TestCompressTierSpellingsShareWarmStarts(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()

	cold := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.3})
	if cold.Warm {
		t.Fatal("first fit reported warm")
	}
	for i, tier := range []string{"off", "f64", ""} {
		fit := doFit(t, client, ts.URL, &serve.FitRequest{
			Dataset: smallRef(), LambdaRatio: 0.29 - 0.01*float64(i), CompressTier: tier})
		if !fit.Warm || !fit.PathCacheHit {
			t.Fatalf("compress_tier %q missed the uncompressed population: %+v", tier, fit)
		}
	}
	f32 := doFit(t, client, ts.URL, &serve.FitRequest{Dataset: smallRef(), LambdaRatio: 0.25, CompressTier: "f32"})
	if f32.Warm || f32.PathCacheHit {
		t.Fatalf("f32 fit warm-started from an uncompressed entry: %+v", f32)
	}
}
