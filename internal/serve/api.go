// Package serve implements LASSO-as-a-service: an HTTP/JSON front end
// that runs the repository's communication-avoiding solvers on a
// bounded worker pool with admission control, and exploits the
// regularization-path structure of the workload through three caches:
//
//   - a dataset cache (LRU) holding the loaded problem plus its
//     sampled-Lipschitz step sizes, so repeated fits against the same
//     data skip the Gram-spectrum power iterations;
//   - per dataset, one solver.Resident per procs: its least-squares
//     triple (G = XXᵀ/m, r = Xy/m, c = ‖y‖²/2m), which depends on
//     neither lambda, the regularizer nor the iterate. A least-squares
//     fit that leaves solver, b, k and s unset, with no active_set and
//     no compress_tier, is answered from the triple with no world
//     (solver.SolveTriple): a local FISTA on (G, r) — the paper's b = 1
//     corner — of at most max_iter iterations, and one data pass over
//     the procs column blocks that certifies it or, when it does not
//     certify within max_iter, prices its unconverged answer. Every other
//     least-squares fit runs on a world and is handed the triple
//     (solver.SolveDistributedResident), which it reads from round 0,
//     the first fit filling it before its first round. Its reply is bit
//     for bit that of the CLI solve at the same procs — warm=false
//     still means a cold solve; only ElapsedMS and ModelSeconds, which
//     count work done, tell the difference. Either way the reply is the
//     same whether the triple was kept or filled for this fit. The
//     triples hold at most the bytes of the dataset's X and y and leave
//     with it;
//   - a lambda-path cache keyed by (dataset, solver fingerprint,
//     lambda bucket) holding the final iterate and support of previous
//     solves, so a fit at a neighboring lambda warm-starts from the
//     cached solution — with active-set screening the warm solve's
//     working set starts at the cached support, and with GradMapTol
//     stopping a sufficiently close warm start finishes in zero
//     communication rounds (see solver.Options.W0).
//
// Each path entry also keeps the certificate its solve stopped on — the
// gradient-mapping norm at w (solver.Result.GradMap) — and the world
// size it was measured on. A repeat at the entry's exact lambda, on the
// same world size, whose GradMapTol the stored norm meets is a certified
// hit: it is answered from the entry without building a world or reading
// the data, bit for bit what the zero-round solve would return.
//
// Admission control is a queue with a hard cap: when every worker is
// busy and the queue is full, POST /fit returns 429 immediately
// instead of building an unbounded backlog. Each admitted request
// carries a deadline; the context is threaded through
// the cancellation vote solvercore.Loop takes in every round, so an
// expired deadline (or a disconnected client) stops the solve at the
// next round and still yields a well-formed partial result.
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
	// "huber" or "quantile". Non-least-squares losses run on the
	// sampled-Hessian Proximal Newton engine (one gradient + one
	// Hessian allreduce per outer iteration) instead of RC-SFISTA, so
	// Solver, ActiveSet and CompressTier must stay unset for them (the
	// feature table in internal/scenario refuses them). HuberDelta,
	// QuantileTau and QuantileEps are the loss shape parameters; zero
	// selects the loss defaults.
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

	// Solver is "rcsfista" (the default algorithm), "sfista" (k=s=1)
	// or "fista" (RC-SFISTA at b=1, k=s=1: the paper's FISTA corner,
	// not the CLI's -algo fista, which passes over the data every
	// update). Naming any of them, like setting B, K or S, runs the fit
	// on a world whose reply equals the CLI solve of those parameters
	// bit for bit; leaving all four unset lets a least-squares fit be
	// answered from its dataset's triple with no world (see AnsweredBy).
	Solver string `json:"solver,omitempty"`
	// MaxIter bounds the solution updates — the local iterations of a
	// triple-answered fit, the updates of a world fit, the outer
	// iterations of a proximal newton fit; zero selects the server
	// default (100 outer iterations for proximal newton). Iters never
	// exceeds it.
	MaxIter int `json:"max_iter,omitempty"`
	// GradMapTol is the reference-free stopping threshold; zero selects
	// the server default, negative disables early stopping.
	GradMapTol float64 `json:"gradmap_tol,omitempty"`
	// B, K, S are the sampling rate and the paper's batching/reuse
	// parameters; zero keeps solver defaults (b=0.1, k=s=1). They are
	// the explicit-sampling switch: a least-squares fit with all three
	// and Solver unset (and no ActiveSet or CompressTier) reads none of
	// them and is answered from the triple; setting any one runs
	// RC-SFISTA on a world at those parameters, which reads the same
	// triple from round 0.
	B float64 `json:"b,omitempty"`
	K int     `json:"k,omitempty"`
	S int     `json:"s,omitempty"`
	// EpochLen overrides the variance-reduction epoch length (zero
	// keeps the solver default). Shorter epochs give the GradMapTol
	// stop finer granularity, which sharpens warm-start round savings.
	EpochLen int `json:"epoch_len,omitempty"`
	// ActiveSet enables dynamic screening (reduced allreduce payloads).
	ActiveSet bool `json:"active_set,omitempty"`
	// CompressTier selects the quantized-collective wire tier for the
	// solve: "" or "off" (full f64), "f32", "i8", "auto"
	// (cost-model-driven per collective). Least-squares solvers only.
	CompressTier string `json:"compress_tier,omitempty"`
	// Procs is the world size the solve runs on; zero selects the
	// server default. The iterates are invariant to Procs (shared
	// sample streams), which is why warm starts ignore it: an entry
	// published at any P warm-starts a fit at any other. Their last bits
	// are not — the allreduced sums group by partition — so a certified
	// hit, which returns the stored answer instead of solving, needs the
	// entry's own P.
	Procs int `json:"procs,omitempty"`
	// Seed drives the sampling streams (default 42).
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
	// Both count work done: a kept triple adds to neither. Everything
	// else in the reply is what the same fit on a fresh server — no kept
	// triple — returns, bit for bit; for a world-answered fit that names
	// its sampling (Solver, B, K or S) that is also what the CLI solve at
	// the same procs returns.
	ElapsedMS    float64 `json:"elapsed_ms"`
	ModelSeconds float64 `json:"model_seconds"`
	// AnsweredBy names the path that answered: "triple" (a local solve
	// on the dataset's triple, certified by one data pass, unconverged
	// when it did not certify within MaxIter, or cut short by the
	// deadline; Rounds is 0 and Iters counts local iterations), "world"
	// (a distributed solve) or "cache" (a certified hit).
	AnsweredBy string `json:"answered_by"`

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
	// MaxIter / GradMapTol / EpochLen are the solver defaults applied
	// to requests that leave them zero (defaults 4000 / 1e-5 / 20).
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
