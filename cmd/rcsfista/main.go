// Command rcsfista solves l1-regularized least squares problems with
// the paper's algorithms on the simulated distributed runtime.
//
// Usage:
//
//	rcsfista [flags]
//
// Data comes either from a registered synthetic dataset shape
// (-dataset, see Table 2) or from a LIBSVM file (-libsvm). Pick the
// algorithm with -algo: rcsfista (default), sfista (k=S=1), fista
// (deterministic), ista, pn (proximal Newton) or cocoa (the ProxCoCoA
// baseline).
//
// Examples:
//
//	rcsfista -dataset covtype -procs 16 -k 8 -s 5 -b 0.1
//	rcsfista -libsvm train.svm -lambda 0.01 -algo fista
//	rcsfista -dataset mnist -algo cocoa -procs 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"

	"github.com/hpcgo/rcsfista/internal/cocoa"
	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/scenario"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the context; the solvers stop at the next
	// round boundary on every rank and run still emits the partial
	// model and trace. A second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rcsfista: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("rcsfista", flag.ContinueOnError)
	var (
		dataset      = flag.String("dataset", "covtype", "synthetic dataset shape (abalone|susy|covtype|mnist|epsilon)")
		libsvm       = flag.String("libsvm", "", "LIBSVM file to load instead of a synthetic dataset")
		features     = flag.Int("features", 0, "feature count for -libsvm (0: infer)")
		samples      = flag.Int("samples", 0, "sample count override for synthetic data (0: registry default)")
		algo         = flag.String("algo", "rcsfista", "algorithm: rcsfista|sfista|fista|ista|pn|cocoa")
		procs        = flag.Int("procs", 1, "number of simulated processors")
		k            = flag.Int("k", 8, "iteration-overlapping parameter (0: auto-tune from Eq. 25-28)")
		s            = flag.Int("s", 1, "Hessian-reuse inner loop parameter")
		b            = flag.Float64("b", 0.1, "sampling rate in (0,1]")
		lambda       = flag.Float64("lambda", -1, "l1 penalty (negative: dataset default)")
		regName      = flag.String("reg", "l1", "regularizer: l1|en|ridge|group")
		l2           = flag.Float64("l2", 0, "quadratic strength for -reg en|ridge")
		groupsSpec   = flag.String("groups", "", "group-lasso partition for -reg group (\"size:4\" or \"0-3,4-7\")")
		lossName     = flag.String("loss", "ls", "loss: ls|logistic|huber|quantile (non-ls runs the proximal newton engine)")
		huberDelta   = flag.Float64("huber-delta", 0, "huber knee for -loss huber (0: default 1)")
		quantileTau  = flag.Float64("quantile-tau", 0, "quantile level for -loss quantile (0: default 0.5)")
		quantileEps  = flag.Float64("quantile-eps", 0, "quantile smoothing width for -loss quantile (0: default 0.5)")
		maxIter      = flag.Int("maxiter", 2000, "maximum updates")
		tol          = flag.Float64("tol", 1e-2, "relative objective error tolerance (0: run to maxiter)")
		activeSet    = flag.Bool("activeset", false, "screen to an active working set and ship reduced Gram batches (rcsfista/sfista only)")
		screenMargin = flag.Float64("screen-margin", 0, "active-set screening safety margin in [0,1) (0: default 0.1)")
		compressTier = flag.String("compress-tier", "", "wire tier for every solver collective: off|f32|i8|auto (error-feedback quantized collectives; rcsfista/sfista only)")
		seed         = flag.Uint64("seed", 42, "random seed")
		machine      = flag.String("machine", "comet", "cost model: comet|low-latency|high-latency")
		transport    = flag.String("transport", "chan", "dist backend: chan (in-process)|tcp (one OS process per rank)|auto")
		rank         = flag.Int("rank", -1, "join an existing multi-process world as this rank (with -peers)")
		peers        = flag.String("peers", "", "comma-separated host:port roster, one address per rank (with -rank)")
		calibrate    = flag.Bool("calibrate", false, "measure alpha/beta/gamma on the live transport and model costs on the calibrated machine")
		refIters     = flag.Int("refiters", 8000, "reference solve iterations for F*")
		plot         = flag.Bool("plot", true, "print an ASCII convergence plot")
		saveTo       = flag.String("save", "", "write the fitted model as JSON to this path")
		predict      = flag.String("predict", "", "skip training: load this JSON model and evaluate it on the data")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}
	wrank, wpeers, isWorker := workerRoster(*rank, *peers)
	eng, err := checkFeatures(*algo, *transport, scenario.Fit{
		Reg: *regName, Loss: *lossName, RegParams: *l2 != 0 || *groupsSpec != "",
		ActiveSet: *activeSet, CompressTier: *compressTier != "", ProcessWorld: *transport == "tcp" || isWorker,
	})
	if err != nil {
		return err
	}
	// Resolve the loss and regularizer names before any load; the
	// regularizer is built once the problem fixes d and lambda.
	lossFn, err := scenario.BuildLoss(scenario.LossSpec{Name: *lossName, Delta: *huberDelta, Tau: *quantileTau, Eps: *quantileEps})
	if err != nil {
		return err
	}
	if err := scenario.CheckRegName(*regName); err != nil {
		return err
	}

	// Multi-process TCP mode. The parent re-executes this binary once
	// per rank with the rank roster in the environment and waits;
	// children detect the roster (or explicit -rank/-peers) and join
	// the mesh as workers. Everything below the launch branch runs
	// identically in a worker, except that only rank 0 prints.
	if *transport == "tcp" && !isWorker {
		fmt.Fprintf(out, "launching %d worker processes over localhost tcp\n", *procs)
		return dist.Launch(ctx, dist.LaunchSpec{P: *procs, Args: args, Stdout: out, Stderr: os.Stderr})
	}
	if isWorker && wrank != 0 {
		out = io.Discard
	}

	var prob *data.Problem
	switch {
	case *libsvm != "":
		prob, err = data.ReadLIBSVMFile(*libsvm, *features)
	case *samples > 0:
		info, lerr := data.Lookup(*dataset)
		if lerr != nil {
			return lerr
		}
		prob = info.Instantiate(*samples, info.ScaledCols, *seed)
	default:
		prob, err = data.Load(*dataset, *seed)
	}
	if err != nil {
		return err
	}
	if *lambda >= 0 {
		prob.Lambda = *lambda
	}
	if err := prob.Validate(); err != nil {
		return err
	}
	regOp, err := buildScenarioReg(*regName, *l2, *groupsSpec, prob)
	if err != nil {
		return err
	}
	if *procs < 1 {
		return fmt.Errorf("-procs must be >= 1 (got %d)", *procs)
	}
	d, m := prob.Dim()
	fmt.Fprintf(out, "problem %s: d=%d features, m=%d samples, nnz=%d (f=%.3f), lambda=%g\n",
		prob.Name, d, m, prob.X.Nnz(), prob.Density(), prob.Lambda)

	var mach perf.Machine
	switch *machine {
	case "comet":
		mach = perf.Comet()
	case "low-latency":
		mach = perf.LowLatency()
	case "high-latency":
		mach = perf.HighLatency()
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}

	// Worker mode: join the TCP mesh before any heavy setup so a
	// misconfigured roster fails fast on every rank.
	var comm *dist.TCPComm
	if isWorker {
		c, err := dist.Connect(wrank, wpeers, mach, dist.TCPOptions{})
		if err != nil {
			return err
		}
		defer c.Close()
		comm = c
		if *calibrate {
			cal := dist.Calibrate(comm, dist.CalibrationOptions{})
			comm.SetMachine(cal.Machine)
			mach = cal.Machine
			fmt.Fprint(out, cal.String())
		}
	} else if *calibrate {
		cal, err := calibrateWorld(*transport, *procs, mach)
		if err != nil {
			return err
		}
		mach = cal.Machine
		fmt.Fprint(out, cal.String())
	}

	// Predict-only mode: apply a saved model to the loaded data.
	if *predict != "" {
		model, err := solver.LoadModel(*predict)
		if err != nil {
			return err
		}
		rmse, err := model.RMSE(prob.X, prob.Y)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model %s (%s, lambda=%g): %d/%d non-zero coefficients\n",
			*predict, model.Algorithm, model.Lambda, model.Nnz(), len(model.W))
		fmt.Fprintf(out, "RMSE on %d samples: %.6g\n", m, rmse)
		return nil
	}

	// Reference optimum for the relative-error stopping criterion. The
	// TFOCS stand-in solves the l1 least-squares objective, so any
	// other scenario skips it — its F* would never match and the run
	// would always exhaust -maxiter. Non-ls losses stop on the step
	// norm instead; non-l1 regularizers run the fixed -maxiter budget.
	fstar := math.NaN()
	ls := eng != scenario.LossPN
	if *tol > 0 && ls && regOp != nil {
		fmt.Fprintf(out, "no l1 reference optimum under -reg %s: running the fixed -maxiter budget\n", *regName)
		*tol = 0
	}
	if *tol > 0 && ls {
		fmt.Fprintf(out, "computing reference optimum (TFOCS stand-in, %d iterations)...\n", *refIters)
		_, fstar = solver.Reference(prob.X, prob.Y, prob.Lambda, *refIters)
		fmt.Fprintf(out, "F(w*) = %.8g\n", fstar)
	}

	// Auto-tune (k, S) from the Section 4.2 bounds when requested.
	if *k <= 0 {
		mbar := int(*b * float64(m))
		if mbar < 1 {
			mbar = 1
		}
		rec := perf.Recommend(mach, perf.AlgoParams{
			N: *maxIter, P: *procs, D: d, MBar: mbar, Fill: prob.Density(),
		})
		*k, *s = rec.K, rec.S
		fmt.Fprintf(out, "auto-tuned k=%d S=%d (predicted speedup %.2fx over k=S=1)\n",
			*k, *s, rec.PredictedSpeedup)
	}

	algoLabel := *algo
	if !ls {
		algoLabel = "pn-" + *lossName
	}

	// runRanks runs one rank's solve on the live communicator (worker
	// mode) or on every rank of a fresh in-process world.
	runRanks := func(solve func(c dist.Comm) (*solver.Result, error)) (*solver.Result, error) {
		if comm != nil {
			return solveOnComm(comm, solve)
		}
		w, err := dist.NewWorldOn(*transport, *procs, mach)
		if err != nil {
			return nil, err
		}
		return solvercore.RunWorld(w, solve)
	}

	// The options every solver.Options engine shares; gamma is the step
	// from b-sampled Lipschitz estimates.
	opts := solver.Defaults()
	opts.Reg, opts.Lambda, opts.MaxIter, opts.Tol, opts.FStar = regOp, prob.Lambda, *maxIter, *tol, fstar
	gamma := func(b float64, iters int) float64 {
		return solver.GammaFromLipschitz(solver.SampledLipschitz(prob.X, prob.Y, b, iters, *seed))
	}
	var res *solver.Result
	switch eng {
	case scenario.LossPN:
		// Generalized-loss proximal newton (huber, quantile, logistic)
		// with any scenario regularizer.
		y := prob.Y
		_, logistic := lossFn.(erm.Logistic)
		if logistic {
			y = erm.SignLabels(y)
		}
		eopts := erm.Options{Loss: lossFn, Reg: regOp, Lambda: prob.Lambda,
			OuterIter: *maxIter, InnerIter: max(1, *s), B: *b, LineSearch: true, Seed: *seed}
		res, err = runRanks(func(c dist.Comm) (*solver.Result, error) {
			return erm.DistProxNewtonContext(ctx, c, erm.Partition(prob.X, y, c.Size(), c.Rank()), eopts)
		})
		if res != nil && logistic {
			fmt.Fprintf(out, "training accuracy: %.4f\n", erm.NewObjective(prob.X, y, lossFn).Accuracy(res.W))
		}
	case scenario.CoCoA:
		opts := cocoa.Options{
			Lambda: prob.Lambda, Rounds: *maxIter, Tol: *tol, FStar: fstar, Seed: *seed,
		}
		xRows := prob.X.ToCSR()
		res, err = runRanks(func(c dist.Comm) (*solver.Result, error) {
			return cocoa.SolveContext(ctx, c, cocoa.Partition(xRows, prob.Y, c.Size(), c.Rank()), opts)
		})
	case scenario.DataFISTA:
		opts.Gamma, opts.EvalEvery = gamma(1, 1), 10
		solve := solver.ISTA
		if *algo == "fista" {
			solve = solver.FISTA
		}
		res, err = solve(prob.X, prob.Y, opts)
	case scenario.PN:
		opts := solver.DistPNOptions{
			Lambda: prob.Lambda, Gamma: gamma(*b, 8), B: *b,
			Tol: *tol, FStar: fstar, Seed: *seed,
			OuterIter: *maxIter / max(1, *s), InnerIter: max(1, *s), K: *k,
		}
		res, err = runRanks(func(c dist.Comm) (*solver.Result, error) {
			return solver.DistProxNewtonContext(ctx, c, solver.Partition(prob.X, prob.Y, c.Size(), c.Rank()), opts)
		})
	case scenario.RCSFISTA:
		opts.Gamma, opts.B, opts.K, opts.S, opts.Seed = gamma(*b, 8), *b, *k, *s, *seed
		opts.ActiveSet, opts.ScreenMargin, opts.CompressTier = *activeSet, *screenMargin, *compressTier
		if *algo == "sfista" {
			opts.K, opts.S = 1, 1
		}
		res, err = runRanks(func(c dist.Comm) (*solver.Result, error) {
			return solver.RCSFISTAContext(ctx, c, solver.Partition(prob.X, prob.Y, c.Size(), c.Rank()), opts)
		})
	}
	// A signal-cancelled solve still hands back a well-formed partial
	// result (last checkpoint, counters, trace so far): report it and
	// fall through to the normal output path, model save included.
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !(interrupted && res != nil) {
		return err
	}
	if interrupted {
		fmt.Fprintf(out, "\ninterrupted (%v): emitting partial results\n", err)
	}

	p, tname := *procs, *transport
	if comm != nil {
		// Worker ranks always talk real TCP, whatever -transport says.
		p, tname = comm.Size(), "tcp"
	}
	fmt.Fprintf(out, "\nalgorithm %s on P=%d over %s (%s):\n", algoLabel, p, tname, mach)
	fmt.Fprintf(out, "  updates: %d, communication rounds: %d, converged: %v\n", res.Iters, res.Rounds, res.Converged)
	printObjective(out, res)
	fmt.Fprintf(out, "  cost: %v\n", res.Cost)
	fmt.Fprintf(out, "  modeled time: %.6gs, wall time: %.3gs\n", res.ModelSeconds, res.WallSeconds)
	nz := 0
	for _, v := range res.W {
		if v != 0 {
			nz++
		}
	}
	fmt.Fprintf(out, "  solution: %d/%d non-zero coordinates\n", nz, len(res.W))
	if *saveTo != "" {
		model := solver.NewModel(res, prob.Lambda, algoLabel, prob.Name)
		if err := solver.SaveModel(*saveTo, model); err != nil {
			return err
		}
		fmt.Fprintf(out, "  model written to %s (%d non-zeros)\n", *saveTo, model.Nnz())
	}
	if *plot && res.Trace != nil && res.Trace.Len() > 1 {
		fmt.Fprintln(out)
		fmt.Fprint(out, trace.PlotRelErr("convergence", []*trace.Series{res.Trace}, trace.ByIter, 64, 14))
	}
	return nil
}

// printObjective prints F(w), its relative error when F* is known, and
// the gradient-mapping norm at w when the solve measured one (a
// GradMapTol stop on exact collectives; see solver.Result.GradMap).
func printObjective(out io.Writer, res *solver.Result) {
	fmt.Fprintf(out, "  F(w) = %.8g", res.FinalObj)
	if !math.IsNaN(res.FinalRelErr) {
		fmt.Fprintf(out, ", relerr = %.3g", res.FinalRelErr)
	}
	fmt.Fprintln(out)
	if !math.IsNaN(res.GradMap) {
		fmt.Fprintf(out, "  gradient-mapping norm at w: %.3g\n", res.GradMap)
	}
}
