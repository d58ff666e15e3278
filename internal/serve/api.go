// Package serve implements LASSO-as-a-service: an HTTP/JSON front end
// that answers fits on a bounded worker pool with admission control,
// and exploits the regularization-path structure of the workload
// through three caches:
//
//   - a dataset cache (LRU) holding the loaded problem and its
//     lambda_max;
//   - per dataset, one solver.Triple per procs: its least-squares
//     triple (G = XXᵀ/m, r = Xy/m, c = ‖y‖²/2m) and its one step size
//     1/λmax(G), which depend on neither lambda, the regularizer nor
//     the iterate. Every least-squares fit is answered from the triple
//     with no world and without reading the data (solver.SolveTriple):
//     Algorithm 2's deterministic FISTA on (G, r) — the paper's b = 1
//     corner — of at most max_iter iterations, certified when its
//     gradient-map norm plus the triple's rounding-error bound meets
//     gradmap_tol, and priced by the triple's objective whether or not
//     it certifies within max_iter. The first fit fills the triple
//     in-process (solver.FillTriple) and bills the fill; the reply is
//     otherwise the same whether the triple was kept or filled for
//     this fit. The triples hold at most the bytes of the dataset's X
//     and y and leave with it. A world answers only the other losses,
//     on the proximal Newton engine;
//   - a lambda-path cache keyed by (dataset, fit family, lambda
//     bucket) holding the final iterate of previous solves, so a fit
//     at a neighboring lambda warm-starts from the cached solution, in
//     fewer iterations.
//
// Each path entry also keeps the certificate its solve stopped on — an
// upper bound on the gradient-mapping norm at w (solver.Result.GradMap),
// which the reply carries as gradmap — and the world
// size it was measured on. A repeat at the entry's exact lambda, on the
// same world size, whose GradMapTol the stored norm meets is a certified
// hit: it is answered from the entry without a solve or reading the
// data, bit for bit what the solve warm-started there would return.
//
// Admission control is a queue with a hard cap: when every worker is
// busy and the queue is full, POST /fit returns 429 immediately
// instead of building an unbounded backlog. Each admitted request
// carries a deadline. A least-squares fit checks its context every
// few local iterations (solver.SolveTriple), a proximal Newton fit at
// the cancellation vote solvercore.Loop takes every round, so an
// expired deadline (or a disconnected client) stops the solve and still
// yields a well-formed partial result.
package serve

import (
	"fmt"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// DatasetRef names a registered synthetic dataset instance. The tuple
// (Name, Samples, Features, Seed) fully determines the generated
// problem, so it doubles as the cache key.
type DatasetRef struct {
	// Name is a registry name: abalone, susy, covtype, mnist, epsilon.
	Name string `json:"name"`
	// Samples and Features override the registered scaled dimensions;
	// zero keeps the registry defaults.
	Samples  int `json:"samples,omitempty"`
	Features int `json:"features,omitempty"`
	// Seed drives the generator; the same (name, dims, seed) always
	// yields the same instance.
	Seed uint64 `json:"seed,omitempty"`
}

// Key renders the cache key of the referenced instance.
func (r DatasetRef) Key() string {
	return fmt.Sprintf("%s/%d/%d/%d", r.Name, r.Samples, r.Features, r.Seed)
}

// FitRequest is the body of POST /fit. Exactly one of Dataset or
// LIBSVM selects the training data; exactly one of Lambda or
// LambdaRatio selects the penalty.
type FitRequest struct {
	// Dataset references a registered synthetic instance.
	Dataset *DatasetRef `json:"dataset,omitempty"`
	// LIBSVM carries inline training data in LIBSVM format; Features
	// optionally fixes the dimension (otherwise the max index is used).
	LIBSVM   string `json:"libsvm,omitempty"`
	Features int    `json:"features,omitempty"`

	// Reg selects the regularizer: "l1" (default), "en" (elastic net,
	// needs L2), "ridge", or "group" (needs Groups). Lambda remains the
	// primary penalty for every family; L2 adds the quadratic strength
	// for en and ridge.
	Reg string  `json:"reg,omitempty"`
	L2  float64 `json:"l2,omitempty"`
	// Groups is the group-lasso partition spec for reg=group, in
	// prox.ParseGroups syntax ("size:4" or "0-3,4-7,8-11").
	Groups string `json:"groups,omitempty"`

	// Loss selects the smooth loss: "ls" (default), "logistic",
	// "huber" or "quantile". A least-squares fit is answered from the
	// dataset's triple; the other losses run on the sampled-Hessian
	// Proximal Newton engine on a world (one gradient + one Hessian
	// allreduce per outer iteration). HuberDelta, QuantileTau and
	// QuantileEps are the loss shape parameters; zero selects the loss
	// defaults.
	Loss        string  `json:"loss,omitempty"`
	HuberDelta  float64 `json:"huber_delta,omitempty"`
	QuantileTau float64 `json:"quantile_tau,omitempty"`
	QuantileEps float64 `json:"quantile_eps,omitempty"`

	// Lambda is the absolute l1 penalty. LambdaRatio instead selects
	// lambda = ratio * lambda_max(dataset), with lambda_max =
	// ||X y / m||_inf, the smallest penalty with an all-zero solution —
	// the natural parameterization for a regularization-path sweep that
	// does not need to know the data's scale.
	Lambda      float64 `json:"lambda,omitempty"`
	LambdaRatio float64 `json:"lambda_ratio,omitempty"`

	// MaxIter bounds the solution updates — the local iterations of a
	// least-squares fit, the outer iterations of a proximal newton fit;
	// zero selects the server default (100 outer iterations for
	// proximal newton). Iters never exceeds it.
	MaxIter int `json:"max_iter,omitempty"`
	// GradMapTol is the reference-free stopping threshold; zero selects
	// the server default, negative disables early stopping.
	GradMapTol float64 `json:"gradmap_tol,omitempty"`
	// B is the Hessian sampling rate of a proximal newton fit; zero
	// keeps 0.1. A least-squares fit reads every sample (the triple is
	// the b = 1 corner), so the feature table refuses b beside it.
	B float64 `json:"b,omitempty"`
	// Procs is the world size the fit is answered on — the ranks of a
	// proximal newton world, the column blocks a least-squares fit's
	// triple sums over; zero selects the server default.
	// The answer depends on Procs only in its last bits — the sums group
	// by partition — which is why warm starts ignore it: an entry
	// published at any P warm-starts a fit at any other. A certified
	// hit, which returns the stored answer instead of solving, needs the
	// entry's own P.
	Procs int `json:"procs,omitempty"`
	// Seed drives a proximal newton fit's sampling streams (default 42).
	// A least-squares fit draws no sample, so the feature table refuses
	// seed beside it.
	Seed uint64 `json:"seed,omitempty"`

	// Warm enables the lambda-path warm-start lookup (default true;
	// pass false to force a cold solve).
	Warm *bool `json:"warm,omitempty"`
	// NoStore skips publishing this solve's solution into the
	// lambda-path cache — useful for load tests that want a clean
	// cold/warm comparison.
	NoStore bool `json:"no_store,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds; zero
	// selects the server default, and the server's MaxDeadline caps it.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// ReturnW includes the full coefficient vector in the response
	// (it can be large; by default only the model id is returned).
	ReturnW bool `json:"return_w,omitempty"`
}

// warm reports whether the warm-start lookup is enabled.
func (r *FitRequest) warm() bool { return r.Warm == nil || *r.Warm }

// FitResponse is the body of a successful (or partial) fit.
type FitResponse struct {
	// ModelID retrieves the fitted model via POST /predict.
	ModelID string `json:"model_id"`
	// Lambda is the resolved absolute penalty.
	Lambda float64 `json:"lambda"`
	// Objective is the final objective F(w); Nnz the support size.
	Objective float64 `json:"objective"`
	Nnz       int     `json:"nnz"`
	// Iters and Rounds report the solve effort; Converged whether the
	// stopping rule fired before MaxIter.
	Iters     int  `json:"iters"`
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// Partial marks a deadline-truncated solve: the model is the last
	// consistent iterate, not a converged solution, and Error carries
	// the cause. Deadline expiry is a 200 with Partial=true — the
	// service did useful bounded work, which is the contract.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`

	// Warm reports whether a lambda-path warm start was applied, and
	// WarmFromLambda which cached lambda supplied it.
	Warm           bool    `json:"warm"`
	WarmFromLambda float64 `json:"warm_from_lambda,omitempty"`
	// DatasetCacheHit / PathCacheHit report per-request cache outcomes.
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	PathCacheHit    bool `json:"path_cache_hit"`

	// ElapsedMS is wall-clock solve time; ModelSeconds the
	// alpha-beta-gamma modeled time on the server's machine model. Both
	// are 0 on a certified hit, which runs no solve (Rounds is 0 too).
	// Both count work done: the fit that fills its triple (and its step)
	// bills the fill, one that reads a kept triple does not. Everything
	// else in the reply is what the same fit on a fresh server — no kept
	// triple — returns, bit for bit.
	ElapsedMS    float64 `json:"elapsed_ms"`
	ModelSeconds float64 `json:"model_seconds"`
	// AnsweredBy names the path that answered: "triple" (a local solve
	// on the dataset's triple at its step, certified by the triple's
	// rounding-error bound without a data pass, unconverged when it did
	// not certify within MaxIter, or cut short by the deadline; Rounds
	// is 0 and Iters counts local iterations; every least-squares fit a
	// solve answers), "world" (a proximal newton fit on a world, for a
	// loss other than ls) or "cache" (a certified hit).
	AnsweredBy string `json:"answered_by"`
	// GradMap is the certificate the fit stopped on: an upper bound on
	// the exact gradient-mapping norm at w, at most GradMapTol — on a
	// certified hit the cache entry's stored bound, which its publisher
	// reported. It is absent from every reply that certified nothing.
	GradMap float64 `json:"gradmap,omitempty"`

	// W is the coefficient vector, present only with ReturnW.
	W []float64 `json:"w,omitempty"`
}

// PredictRequest is the body of POST /predict. Exactly one of ModelID
// or W selects the model; exactly one of Dataset or LIBSVM the data.
type PredictRequest struct {
	ModelID string    `json:"model_id,omitempty"`
	W       []float64 `json:"w,omitempty"`

	Dataset  *DatasetRef `json:"dataset,omitempty"`
	LIBSVM   string      `json:"libsvm,omitempty"`
	Features int         `json:"features,omitempty"`
}

// PredictResponse carries predictions X^T w (one per sample) and the
// RMSE against the data's labels.
type PredictResponse struct {
	ModelID     string    `json:"model_id,omitempty"`
	Predictions []float64 `json:"predictions"`
	RMSE        float64   `json:"rmse"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// Config sizes the service. The zero value is usable: New fills every
// field with the defaults below.
type Config struct {
	// Workers is the number of concurrent solves (default 2).
	Workers int
	// QueueCap bounds the admitted-but-waiting fit queue (default 16);
	// beyond Workers running + QueueCap queued, POST /fit returns 429.
	QueueCap int
	// DefaultDeadline applies when a request carries none (default 15s);
	// MaxDeadline caps client-requested deadlines (default 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Transport names the dist backend solves run on (default "chan").
	Transport string
	// Procs is the default world size per solve (default 4).
	Procs int
	// Machine is the cost model solves are priced against (default
	// perf.Comet()).
	Machine perf.Machine
	// DatasetCap bounds the dataset cache (default 8 instances, LRU).
	DatasetCap int
	// PathCap bounds each (dataset, fingerprint) lambda path's cached
	// entries (default 64, LRU).
	PathCap int
	// ModelCap bounds the fitted-model store (default 256, LRU).
	ModelCap int
	// MaxIter / GradMapTol are the solver defaults applied to requests
	// that leave them zero (defaults 4000 / 1e-5). EpochLen (default 20)
	// is read by no fit; the repository benchmark's serving reference
	// solve still reads it.
	MaxIter    int
	GradMapTol float64
	EpochLen   int
	// MaxProcs caps the per-request world size (default 16).
	MaxProcs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.Transport == "" {
		c.Transport = "chan"
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Machine == (perf.Machine{}) {
		c.Machine = perf.Comet()
	}
	if c.DatasetCap <= 0 {
		c.DatasetCap = 8
	}
	if c.PathCap <= 0 {
		c.PathCap = 64
	}
	if c.ModelCap <= 0 {
		c.ModelCap = 256
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 4000
	}
	if c.GradMapTol == 0 {
		c.GradMapTol = 1e-5
	}
	if c.EpochLen <= 0 {
		c.EpochLen = 20
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 16
	}
	return c
}
