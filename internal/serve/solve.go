package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/scenario"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// httpError carries a status code chosen at the point the failure is
// understood.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// resolveDataset returns the prepared dataset a fit/predict request
// names, via the cache.
func (s *Server) resolveDataset(ref *DatasetRef, libsvm string, features int) (*dataset, bool, error) {
	switch {
	case ref != nil && libsvm != "":
		return nil, false, badRequest("request must carry either a dataset reference or inline LIBSVM data, not both")
	case ref != nil:
		if _, err := data.Lookup(ref.Name); err != nil {
			return nil, false, &httpError{status: 404, msg: err.Error()}
		}
		ds, hit, err := s.datasets.get(ref.Key(), func() (*data.Problem, error) {
			return data.LoadWith(ref.Name, ref.Samples, ref.Features, ref.Seed)
		})
		if err != nil {
			return nil, false, badRequest("load dataset: %v", err)
		}
		return ds, hit, nil
	case libsvm != "":
		ds, hit, err := s.datasets.get(inlineKey(libsvm, features), func() (*data.Problem, error) {
			return data.ReadLIBSVM(strings.NewReader(libsvm), features)
		})
		if err != nil {
			return nil, false, badRequest("parse LIBSVM: %v", err)
		}
		return ds, hit, nil
	default:
		return nil, false, badRequest("request needs a dataset reference or inline LIBSVM data")
	}
}

// checkRequest refuses what the request alone gets wrong — the
// penalty's sign, both penalties at once, b or procs out of range —
// before any dataset is resolved, so a malformed fit loads nothing and
// evicts nothing. It returns the fit's world size.
func (s *Server) checkRequest(req *FitRequest) (int, error) {
	switch {
	case req.Lambda < 0 || req.LambdaRatio < 0:
		return 0, badRequest("lambda and lambda_ratio must be non-negative")
	case req.Lambda > 0 && req.LambdaRatio > 0:
		return 0, badRequest("set either lambda or lambda_ratio, not both")
	case req.B < 0 || req.B > 1:
		return 0, badRequest("b = %g out of (0, 1]", req.B)
	}
	procs := s.cfg.Procs
	if req.Procs != 0 {
		procs = req.Procs
	}
	if procs < 1 || procs > s.cfg.MaxProcs {
		return 0, badRequest("procs = %d out of [1, %d]", procs, s.cfg.MaxProcs)
	}
	return procs, nil
}

// fitOptions assembles solver options for a checked request against a
// prepared dataset, resolving the lambda and the server defaults. Only
// a least-squares fit (engine Triple) reads the step size, so only it
// estimates one.
func (s *Server) fitOptions(req *FitRequest, ds *dataset, eng scenario.Engine) (solver.Options, float64, error) {
	var zero solver.Options
	lambda := req.Lambda
	if req.LambdaRatio > 0 {
		lambda = req.LambdaRatio * ds.lambdaMax
	}
	if lambda <= 0 {
		return zero, 0, badRequest("a positive lambda (or lambda_ratio) is required")
	}

	o := solver.Defaults()
	o.Lambda = lambda
	if req.Seed != 0 {
		o.Seed = req.Seed
	}
	if req.B != 0 {
		o.B = req.B
	}
	o.MaxIter = s.cfg.MaxIter
	if req.MaxIter > 0 {
		o.MaxIter = req.MaxIter
	}
	o.GradMapTol = s.cfg.GradMapTol
	if req.GradMapTol != 0 {
		o.GradMapTol = max(req.GradMapTol, 0)
	}
	// The regularizer block. The default l1 stays expressed through
	// Lambda alone (Reg nil); any other family goes through the
	// scenario builder against the dataset's dimension.
	if req.Reg != "" && req.Reg != "l1" {
		reg, err := scenario.BuildReg(scenario.RegSpec{
			Name: req.Reg, Lambda: lambda, L2: req.L2, Groups: req.Groups,
		}, ds.prob.X.Rows)
		if err != nil {
			return zero, 0, badRequest("%v", err)
		}
		o.Reg = reg
	}
	o.TraceName = "serve"
	if eng == scenario.Triple {
		o.Gamma = ds.step()
		if err := o.Validate(); err != nil {
			return zero, 0, badRequest("%v", err)
		}
	}
	return o, lambda, nil
}

// fitNames spells the features as FitRequest's fields.
var fitNames = scenario.Names{
	scenario.RegParams: "l2/groups", scenario.Loss: "loss", scenario.NonL1Reg: "reg", scenario.SampleRate: "b",
}

// fitEngine asks the feature table which engine the request runs on —
// /fit names none (scenario.Served): Triple for least squares, LossPN
// for any other loss — and refuses, with a 400 in the request's field
// names, what that engine does not allow.
func fitEngine(req *FitRequest) (scenario.Engine, error) {
	e, err := scenario.Check(scenario.Fit{
		Engine: scenario.Served, Algo: "loss ls", Reg: req.Reg, Loss: req.Loss,
		RegParams: req.L2 != 0 || req.Groups != "", SampleRate: req.B != 0,
	}, fitNames)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return e, nil
}

// The paths that answer a fit, as FitResponse.AnsweredBy names them.
const (
	answeredTriple = "triple"
	answeredWorld  = "world"
	answeredCache  = "cache"
)

// runFit executes one admitted fit request end to end: the feature
// table's and the request's own checks, dataset resolution, warm-start
// lookup, the solve under the request context and cache publication;
// or, when the lookup's entry certifies the request, the cached answer
// with no solve at all. A least-squares fit is answered from the
// dataset's triple of its procs, filled in-process on first use, within
// max_iter iterations and certified by one data pass when it converges;
// any other loss runs proximal Newton on a world. It never returns a
// nil response without an error.
func (s *Server) runFit(ctx context.Context, req *FitRequest) (*FitResponse, error) {
	eng, err := fitEngine(req)
	if err != nil {
		return nil, err
	}
	loss, err := scenario.BuildLoss(scenario.LossSpec{
		Name: req.Loss, Delta: req.HuberDelta, Tau: req.QuantileTau, Eps: req.QuantileEps,
	})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	procs, err := s.checkRequest(req)
	if err != nil {
		return nil, err
	}
	ds, dsHit, err := s.resolveDataset(req.Dataset, req.LIBSVM, req.Features)
	if err != nil {
		return nil, err
	}
	opts, lambda, err := s.fitOptions(req, ds, eng)
	if err != nil {
		return nil, err
	}

	// The warm-start family: a least-squares fit reads no sampling
	// parameter or seed, so its family is the dataset and the
	// regularizer alone; a proximal newton fit's adds b, the seed and
	// the loss.
	algo, fp := answeredTriple, tripleFingerprint(ds.key, scenario.RegTag(opts.Reg))
	if eng != scenario.Triple {
		algo, fp = "pn", fingerprint(ds.key, opts.B, opts.Seed, scenario.RegTag(opts.Reg), scenario.LossTag(loss))
	}
	resp := &FitResponse{Lambda: lambda, DatasetCacheHit: dsHit}
	if req.warm() {
		if e := s.paths.lookup(fp, lambda); e != nil {
			if e.certifies(lambda, opts.GradMapTol, procs) {
				return s.certifiedHit(resp, e, req.ReturnW, algo, ds.key), nil
			}
			opts.W0 = e.w
			resp.Warm = true
			resp.PathCacheHit = true
			resp.WarmFromLambda = e.lambda
		}
	}

	start := time.Now()
	res, serr := s.solve(ctx, resp, req, ds, loss, eng, opts, lambda, procs)
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if serr != nil {
		var he *httpError
		if errors.As(serr, &he) {
			return nil, he
		}
		if res == nil || (!errors.Is(serr, context.DeadlineExceeded) && !errors.Is(serr, context.Canceled)) {
			s.stats.failures.Add(1)
			return nil, &httpError{status: 500, msg: "solve: " + serr.Error()}
		}
		// Deadline/cancel: the triple's deadline check or the world's
		// round-boundary consensus left a well-formed partial result.
		resp.Partial = true
		resp.Error = serr.Error()
		s.stats.deadlines.Add(1)
	}

	resp.Objective = res.FinalObj
	resp.Iters = res.Iters
	resp.Rounds = res.Rounds
	resp.Converged = res.Converged
	resp.ModelSeconds = res.ModelSeconds
	if res.GramFilled {
		s.stats.gramFills.Add(1)
	}
	for _, v := range res.W {
		if v != 0 {
			resp.Nnz++
		}
	}
	// Warm-start effectiveness is measured on completed solves only: a
	// deadline-clipped fit stops at whatever iteration the clock ran out
	// on, so its count says nothing about warm vs cold convergence and
	// would drag both averages toward the deadline budget.
	switch {
	case resp.Partial:
		s.stats.partialFits.Add(1)
	case resp.Warm:
		s.stats.warmFits.Add(1)
		s.stats.warmIters.Add(int64(res.Iters))
	default:
		s.stats.coldFits.Add(1)
		s.stats.coldIters.Add(int64(res.Iters))
	}

	model := solver.NewModel(res, lambda, algo, ds.key)
	resp.ModelID = s.models.add(model)
	if req.ReturnW {
		resp.W = mat.Clone(res.W)
	}
	// A triple-answered fit converges only on its data-pass
	// certificate, so only certified triple answers are published.
	if !req.NoStore && !resp.Partial && res.Converged {
		s.paths.put(fp, &pathEntry{
			lambda:    lambda,
			w:         mat.Clone(res.W),
			objective: res.FinalObj,
			nnz:       resp.Nnz,
			gradMap:   res.GradMap,
			procs:     procs,
		})
	}
	return resp, nil
}

// solve runs a fit the path cache did not answer and sets
// resp.AnsweredBy. A least-squares fit is answered from the dataset's
// triple: certified by its data pass, or unconverged when it does not
// certify within MaxIter, or partial when its deadline expires first.
// Any other loss runs proximal Newton on a world.
func (s *Server) solve(ctx context.Context, resp *FitResponse, req *FitRequest, ds *dataset, loss erm.Loss, eng scenario.Engine, opts solver.Options, lambda float64, procs int) (*solver.Result, error) {
	if eng == scenario.Triple {
		res, err := solver.SolveTriple(ctx, ds.prob.X, ds.prob.Y, procs, s.cfg.Machine, opts, ds.resident(procs))
		if res != nil {
			resp.AnsweredBy = answeredTriple
			s.stats.tripleFits.Add(1)
		}
		return res, err
	}
	resp.AnsweredBy = answeredWorld
	world, err := dist.NewWorldOn(s.cfg.Transport, procs, s.cfg.Machine)
	if err != nil {
		return nil, &httpError{status: 500, msg: "create world: " + err.Error()}
	}
	return s.runPNFit(ctx, world, req, ds, loss, opts, lambda)
}

// certifiedHit answers a fit from a path entry that certifies it: the
// reply the solve warm-started at the entry would give, bit for bit,
// without a solve or touching the data. Only the timings differ — no solve ran,
// so ElapsedMS and ModelSeconds are 0. The model aliases the entry's
// immutable w, and nothing is re-published.
func (s *Server) certifiedHit(resp *FitResponse, e *pathEntry, returnW bool, algo, datasetKey string) *FitResponse {
	resp.Objective, resp.Nnz, resp.Converged = e.objective, e.nnz, true
	resp.Warm, resp.PathCacheHit, resp.WarmFromLambda = true, true, e.lambda
	resp.AnsweredBy = answeredCache
	s.stats.warmFits.Add(1)
	s.stats.certifiedHits.Add(1)
	resp.ModelID = s.models.add(&solver.Model{
		W: e.w, Lambda: e.lambda, Algorithm: algo, Dataset: datasetKey, Objective: e.objective,
	})
	if returnW {
		resp.W = e.w
	}
	return resp
}

// runPNFit runs a non-least-squares fit on the erm Proximal Newton
// engine (one exact-gradient + one sampled-Hessian allreduce per outer
// iteration). Logistic labels are sign-converted on a copy — the
// cached dataset is shared and must stay untouched.
func (s *Server) runPNFit(ctx context.Context, world dist.World, req *FitRequest, ds *dataset, loss erm.Loss, opts solver.Options, lambda float64) (*solver.Result, error) {
	y := ds.prob.Y
	if _, ok := loss.(erm.Logistic); ok {
		y = erm.SignLabels(y)
	}
	// The server's MaxIter default is a first-order update budget; a
	// Newton outer iteration does far more work (and communication) per
	// step, so an unset request budget maps to a Newton-scale default.
	outer := 100
	if req.MaxIter > 0 {
		outer = req.MaxIter
	}
	eopts := erm.Options{
		Loss: loss, Reg: opts.Reg, Lambda: lambda,
		OuterIter: outer, B: opts.B, LineSearch: true,
		Seed: opts.Seed, W0: opts.W0, TraceName: "serve-pn",
	}
	return solvercore.RunWorld(world, func(c dist.Comm) (*solver.Result, error) {
		return erm.DistProxNewtonContext(ctx, c, erm.Partition(ds.prob.X, y, c.Size(), c.Rank()), eopts)
	})
}

// runPredict executes POST /predict.
func (s *Server) runPredict(req *PredictRequest) (*PredictResponse, error) {
	var model *solver.Model
	switch {
	case req.ModelID != "" && len(req.W) > 0:
		return nil, badRequest("set either model_id or w, not both")
	case req.ModelID != "":
		model = s.models.get(req.ModelID)
		if model == nil {
			return nil, &httpError{status: 404, msg: fmt.Sprintf("unknown model %q (evicted or never fitted)", req.ModelID)}
		}
	case len(req.W) > 0:
		model = &solver.Model{W: req.W, Algorithm: "inline"}
	default:
		return nil, badRequest("request needs a model_id or an inline coefficient vector w")
	}
	ds, _, err := s.resolveDataset(req.Dataset, req.LIBSVM, req.Features)
	if err != nil {
		return nil, err
	}
	pred, err := model.Predict(ds.prob.X)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rmse, err := model.RMSE(ds.prob.X, ds.prob.Y)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &PredictResponse{ModelID: req.ModelID, Predictions: pred, RMSE: rmse}, nil
}
