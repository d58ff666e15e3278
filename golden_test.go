// Golden bit-identity harness for the solvercore refactor: every
// solver run here was recorded (with -update-golden) against the
// pre-refactor engines, and the committed fixture pins Result.W,
// FinalObj, the cost counters and the full trace as exact float64 bit
// patterns. Any port that changes a single rounding, a sample draw, a
// message count or a trace point fails loudly. The matrix covers
// RC-SFISTA across P ∈ {1,4,8} × {fault-free,FaultPlan}, the
// distributed Proximal Newton drivers, the general-loss Proximal Newton
// (sequential and distributed, all loss functions) and CoCoA; the 5
// ProxSVRG and CA-BCD records retired with those engines, which no
// experiment ran, and the 6 `pn/seq*` records with the least-squares
// sequential Proximal Newton front end and its inner-solver menu
// (`erm/seq/squared` is Algorithm 1 on least squares). The grid's names keep their
// `packed=true` segment from when the dense slot was an option (its 12
// `packed=false` twins and the 2 delta-form records retired with the
// options; internal/solver holds both as test references), and their
// `pipe=false` segment from when the round loop was an option: the
// engine now picks it (pipelined without screening), both loops charge
// and record identically, so the 6 `pipe=true` twins retired and
// internal/solver holds the loop equivalence. The surviving keys — and
// `make golden-fence` — still match the committed fixture. So does the
// always-zero OverlapSec cost key, from when the model credited overlap.
//
// Regenerate (only when a behavior change is intended and understood):
//
//	go test -run TestGoldenBitIdentity -update-golden .
package rcsfista_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/hpcgo/rcsfista/internal/cocoa"
	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current engines")

// -transport selects the dist backend the golden suite runs on. The
// fixtures are transport-independent by design: `go test -run
// TestGolden -transport=tcp` must reproduce every record bit for bit
// over real localhost sockets, which is the cross-transport oracle the
// TCP backend is held to.
var goldenTransport = flag.String("transport", "chan", "dist backend to run the golden suite on (chan|tcp|auto)")

// -compress-tier drives TestGoldenCompressTier: the eligible RC-SFISTA
// slice of the matrix reruns with Options.CompressTier set to the given
// rung and is held to the fixtures within the rung's tolerance instead
// of bit-identity. The bit-identity suite itself never compresses.
var goldenCompressTier = flag.String("compress-tier", "", "rerun the RC-SFISTA golden slice with this wire tier (f32|i8|auto) and compare within tolerance")

// goldenTierInject, when non-empty, is copied into every Options built
// by goldenEnv.opts(); only TestGoldenCompressTier sets it, and only
// around configs whose solver honors the field.
var goldenTierInject string

// newGoldenWorld creates a p-rank world on the backend selected by
// -transport, with the fixed Comet machine model the fixtures pin.
func newGoldenWorld(p int) dist.World {
	w, err := dist.NewWorldOn(*goldenTransport, p, perf.Comet())
	if err != nil {
		panic(err)
	}
	return w
}

const goldenPath = "testdata/golden.json"

// bits renders a float64 as its exact bit pattern; the only encoding
// under which "equal" means bit-identical (NaN payloads included).
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

type goldenPoint struct {
	Iter, Round           int
	Obj, RelErr, ModelSec string
}

type goldenEvent struct {
	Round, Iter   int
	Kind          string
	Rank, Attempt int
	StallSec      string
	Detail        string
}

type goldenCost struct {
	Flops, Messages, Words int64
	StallSec, OverlapSec   string
}

type goldenRecord struct {
	W                     []string
	Iters, Rounds         int
	Converged             bool
	FinalObj, FinalRelErr string
	ModelSeconds          string
	Cost                  goldenCost
	Retries, Failed       int
	Degraded, Skipped     int
	FaultStall            string
	TraceName             string
	Points                []goldenPoint
	Events                []goldenEvent
}

func snapshot(res *solver.Result) goldenRecord {
	rec := goldenRecord{
		Iters:        res.Iters,
		Rounds:       res.Rounds,
		Converged:    res.Converged,
		FinalObj:     bits(res.FinalObj),
		FinalRelErr:  bits(res.FinalRelErr),
		ModelSeconds: bits(res.ModelSeconds),
		Cost: goldenCost{
			Flops:      res.Cost.Flops,
			Messages:   res.Cost.Messages,
			Words:      res.Cost.Words,
			StallSec:   bits(res.Cost.StallSec),
			OverlapSec: bits(0),
		},
		Retries:    res.Faults.Retries,
		Failed:     res.Faults.FailedRounds,
		Degraded:   res.Faults.DegradedRounds,
		Skipped:    res.Faults.SkippedRounds,
		FaultStall: bits(res.Faults.StallSec),
	}
	for _, w := range res.W {
		rec.W = append(rec.W, bits(w))
	}
	if res.Trace != nil {
		rec.TraceName = res.Trace.Name
		for _, p := range res.Trace.Points {
			rec.Points = append(rec.Points, goldenPoint{
				Iter: p.Iter, Round: p.Round,
				Obj: bits(p.Obj), RelErr: bits(p.RelErr), ModelSec: bits(p.ModelSec),
			})
		}
		for _, e := range res.Trace.Events {
			rec.Events = append(rec.Events, goldenEvent{
				Round: e.Round, Iter: e.Iter, Kind: e.Kind, Rank: e.Rank,
				Attempt: e.Attempt, StallSec: bits(e.StallSec), Detail: e.Detail,
			})
		}
	}
	return rec
}

// goldenEnv is the shared deterministic problem instance: small enough
// that the whole matrix runs in seconds, large enough that every code
// path (sampling, degenerate local blocks at P=8, line searches,
// epochs) is exercised.
type goldenEnv struct {
	prob  *data.Problem
	yPM   []float64 // ±1 labels for the classification losses
	gamma float64
	fstar float64
	w0    []float64
}

func goldenSetup(t testing.TB) *goldenEnv {
	t.Helper()
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	l := solver.SampledLipschitz(p.X, p.Y, 0.25, 8, 99)
	wref, fstar := solver.Reference(p.X, p.Y, p.Lambda, 2000)
	var mean float64
	for _, v := range p.Y {
		mean += v
	}
	mean /= float64(len(p.Y))
	yPM := make([]float64, len(p.Y))
	for i, v := range p.Y {
		if v > mean {
			yPM[i] = 1
		} else {
			yPM[i] = -1
		}
	}
	return &goldenEnv{prob: p, yPM: yPM, gamma: solver.GammaFromLipschitz(l), fstar: fstar, w0: wref}
}

func (e *goldenEnv) opts() solver.Options {
	o := solver.Defaults()
	o.Lambda = e.prob.Lambda
	o.Gamma = e.gamma
	o.MaxIter = 48
	o.B = 0.25
	o.K = 4
	o.S = 2
	o.VarianceReduced = false
	o.Seed = 123
	o.CompressTier = goldenTierInject
	return o
}

func (e *goldenEnv) vrOpts() solver.Options {
	o := e.opts()
	o.K = 2
	o.S = 1
	o.VarianceReduced = true
	o.EpochLen = 8
	return o
}

func goldenFaultPlan() *dist.FaultPlan {
	return &dist.FaultPlan{
		Seed:          11,
		DropProb:      0.25,
		CorruptProb:   0.15,
		StragglerProb: 0.2,
		Schedule: []dist.ScheduledFault{
			{Round: 2, Kind: dist.FaultDrop, Attempts: 0}, // hard failure: forces degradation
		},
		Crash:      &dist.Crash{Rank: 1, Round: 4, Outage: 2, RestartSec: 2e-3},
		MaxRetries: 2,
	}
}

// runWorld mirrors solver.SolveDistributed for entry points without a
// world driver of their own.
func runWorld(p int, f func(c dist.Comm) (*solver.Result, error)) (*solver.Result, error) {
	w := newGoldenWorld(p)
	results := make([]*solver.Result, p)
	w.ResetCosts()
	err := w.Run(func(c dist.Comm) error {
		res, err := f(c)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	root := results[0]
	root.Cost = w.MaxCost()
	root.ModelSeconds = w.ModeledSeconds()
	return root, nil
}

type goldenConfig struct {
	name string
	run  func(e *goldenEnv) (*solver.Result, error)
}

func goldenConfigs() []goldenConfig {
	var cfgs []goldenConfig
	add := func(name string, run func(e *goldenEnv) (*solver.Result, error)) {
		cfgs = append(cfgs, goldenConfig{name: name, run: run})
	}

	// RC-SFISTA grid: P × network.
	for _, p := range []int{1, 4, 8} {
		for _, faulty := range []bool{true, false} {
			p, faulty := p, faulty
			name := fmt.Sprintf("rcsfista/p%d/packed=true/pipe=false/faults=%t", p, faulty)
			add(name, func(e *goldenEnv) (*solver.Result, error) {
				o := e.opts()
				if faulty {
					o.Faults = goldenFaultPlan()
				}
				w := newGoldenWorld(p)
				return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
			})
		}
	}

	// Skip path: the first rounds are lost outright, before any batch
	// ever arrived, so there is no last-good Hessian to degrade to.
	add("rcsfista/skip/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Faults = &dist.FaultPlan{
			Seed:       13,
			MaxRetries: 1,
			Schedule: []dist.ScheduledFault{
				{Round: 0, Kind: dist.FaultDrop, Attempts: 0},
				{Round: 1, Kind: dist.FaultDrop, Attempts: 0},
			},
		}
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})

	// Variance reduction, gradient-mapping stop, Tol stop, warm start.
	for _, p := range []int{1, 4, 8} {
		p := p
		add(fmt.Sprintf("rcsfista/vr/p%d", p), func(e *goldenEnv) (*solver.Result, error) {
			w := newGoldenWorld(p)
			return solver.SolveDistributed(w, e.prob.X, e.prob.Y, e.vrOpts())
		})
	}
	add("rcsfista/vr/gradmap/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.vrOpts()
		o.GradMapTol = 1e-4
		o.MaxIter = 120
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("rcsfista/tol/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Tol = 0.3
		o.FStar = e.fstar
		o.MaxIter = 120
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("rcsfista/w0/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.W0 = e.w0
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})

	// SelfComm path and the SFISTA special case.
	add("rcsfista/selfcomm", func(e *goldenEnv) (*solver.Result, error) {
		c := dist.NewSelfComm(perf.Comet())
		local := solver.Partition(e.prob.X, e.prob.Y, 1, 0)
		return solver.RCSFISTA(c, local, e.opts())
	})
	add("sfista/p4", func(e *goldenEnv) (*solver.Result, error) {
		return runWorld(4, func(c dist.Comm) (*solver.Result, error) {
			local := solver.Partition(e.prob.X, e.prob.Y, c.Size(), c.Rank())
			o := e.vrOpts()
			return solver.SFISTA(c, local, o)
		})
	})

	// Distributed PN (delegates to the RC-SFISTA engine).
	add("pn/dist/p4/k2", func(e *goldenEnv) (*solver.Result, error) {
		w := newGoldenWorld(4)
		o := solver.DistPNOptions{Lambda: e.prob.Lambda, Gamma: e.gamma, B: 0.25, Seed: 5,
			OuterIter: 6, InnerIter: 4, K: 2}
		return solver.SolvePNDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("pn/dist/p8/k1", func(e *goldenEnv) (*solver.Result, error) {
		w := newGoldenWorld(8)
		o := solver.DistPNOptions{Lambda: e.prob.Lambda, Gamma: e.gamma, B: 0.25, Seed: 5,
			OuterIter: 6, InnerIter: 4, K: 1}
		return solver.SolvePNDistributed(w, e.prob.X, e.prob.Y, o)
	})

	// General-loss Proximal Newton (erm).
	ermBase := func(e *goldenEnv) erm.Options {
		return erm.Options{Lambda: e.prob.Lambda, OuterIter: 6, InnerIter: 10, B: 0.5, Seed: 9}
	}
	add("erm/seq/squared", func(e *goldenEnv) (*solver.Result, error) {
		return erm.ProxNewton(e.prob.X, e.prob.Y, ermBase(e))
	})
	add("erm/seq/logistic", func(e *goldenEnv) (*solver.Result, error) {
		o := ermBase(e)
		o.Loss = erm.Logistic{}
		return erm.ProxNewton(e.prob.X, e.yPM, o)
	})
	add("erm/seq/huber", func(e *goldenEnv) (*solver.Result, error) {
		o := ermBase(e)
		o.Loss = erm.Huber{Delta: 0.5}
		return erm.ProxNewton(e.prob.X, e.prob.Y, o)
	})
	add("erm/seq/linesearch+tol", func(e *goldenEnv) (*solver.Result, error) {
		o := ermBase(e)
		o.LineSearch = true
		o.Tol = 0.3
		o.FStar = e.fstar
		return erm.ProxNewton(e.prob.X, e.prob.Y, o)
	})
	add("erm/dist/p4/squared", func(e *goldenEnv) (*solver.Result, error) {
		return runWorld(4, func(c dist.Comm) (*solver.Result, error) {
			local := erm.Partition(e.prob.X, e.prob.Y, c.Size(), c.Rank())
			return erm.DistProxNewton(c, local, ermBase(e))
		})
	})
	add("erm/dist/p8/logistic+linesearch", func(e *goldenEnv) (*solver.Result, error) {
		return runWorld(8, func(c dist.Comm) (*solver.Result, error) {
			local := erm.Partition(e.prob.X, e.yPM, c.Size(), c.Rank())
			o := ermBase(e)
			o.Loss = erm.Logistic{}
			o.LineSearch = true
			return erm.DistProxNewton(c, local, o)
		})
	})

	// ProxCoCoA.
	for _, p := range []int{1, 4, 8} {
		p := p
		add(fmt.Sprintf("cocoa/p%d", p), func(e *goldenEnv) (*solver.Result, error) {
			w := newGoldenWorld(p)
			o := cocoa.Options{Lambda: e.prob.Lambda, Rounds: 12, Seed: 3}
			return cocoa.SolveDistributed(w, e.prob.X, e.prob.Y, o)
		})
	}
	add("cocoa/p4/localiters+tol", func(e *goldenEnv) (*solver.Result, error) {
		w := newGoldenWorld(4)
		o := cocoa.Options{Lambda: e.prob.Lambda, Rounds: 12, LocalIters: 5, SigmaPrime: 2,
			EvalEvery: 3, Tol: 0.5, FStar: e.fstar, Seed: 3}
		return cocoa.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})

	// Scenario matrix: non-l1 regularizers on the RC-SFISTA engine
	// (dense and screened) and the generalized losses on the erm
	// Proximal Newton engine. These pin the prox.Screener refactor and
	// the huber/quantile code paths across transports.
	scenarioGroups := func(e *goldenEnv) [][]int {
		groups, err := prox.ParseGroups("size:4", e.prob.X.Rows)
		if err != nil {
			panic(err)
		}
		return groups
	}
	add("scenario/rcsfista/en/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Reg = prox.ElasticNet{Lambda1: e.prob.Lambda, Lambda2: 0.01}
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("scenario/rcsfista/en/active/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Reg = prox.ElasticNet{Lambda1: e.prob.Lambda, Lambda2: 0.01}
		o.ActiveSet = true
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("scenario/rcsfista/ridge/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Reg = prox.Ridge{Lambda: 0.05}
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("scenario/rcsfista/group/p1", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Reg = prox.GroupL2{Lambda: e.prob.Lambda, Groups: scenarioGroups(e)}
		w := newGoldenWorld(1)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("scenario/rcsfista/group/active/p4", func(e *goldenEnv) (*solver.Result, error) {
		o := e.opts()
		o.Reg = prox.GroupL2{Lambda: e.prob.Lambda, Groups: scenarioGroups(e)}
		o.ActiveSet = true
		w := newGoldenWorld(4)
		return solver.SolveDistributed(w, e.prob.X, e.prob.Y, o)
	})
	add("erm/seq/quantile", func(e *goldenEnv) (*solver.Result, error) {
		o := ermBase(e)
		o.Loss = erm.Quantile{Tau: 0.7, Eps: 0.2}
		return erm.ProxNewton(e.prob.X, e.prob.Y, o)
	})
	add("erm/seq/huber+groupreg", func(e *goldenEnv) (*solver.Result, error) {
		o := ermBase(e)
		o.Loss = erm.Huber{Delta: 0.5}
		o.Reg = prox.GroupL2{Lambda: e.prob.Lambda, Groups: scenarioGroups(e)}
		return erm.ProxNewton(e.prob.X, e.prob.Y, o)
	})
	add("erm/dist/p4/huber+linesearch", func(e *goldenEnv) (*solver.Result, error) {
		return runWorld(4, func(c dist.Comm) (*solver.Result, error) {
			local := erm.Partition(e.prob.X, e.prob.Y, c.Size(), c.Rank())
			o := ermBase(e)
			o.Loss = erm.Huber{Delta: 0.5}
			o.LineSearch = true
			return erm.DistProxNewton(c, local, o)
		})
	})
	add("erm/dist/p8/quantile", func(e *goldenEnv) (*solver.Result, error) {
		return runWorld(8, func(c dist.Comm) (*solver.Result, error) {
			local := erm.Partition(e.prob.X, e.prob.Y, c.Size(), c.Rank())
			o := ermBase(e)
			o.Loss = erm.Quantile{Tau: 0.7, Eps: 0.2}
			return erm.DistProxNewton(c, local, o)
		})
	})

	return cfgs
}

func TestGoldenBitIdentity(t *testing.T) {
	env := goldenSetup(t)
	cfgs := goldenConfigs()

	got := make(map[string]goldenRecord, len(cfgs))
	for _, cfg := range cfgs {
		res, err := cfg.run(env)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		got[cfg.name] = snapshot(res)
		// The record leaves GradMap out; only the one configuration that
		// can end on the GradMapTol stop may carry a norm.
		if certified := cfg.name == "rcsfista/vr/gradmap/p4" && res.Converged; certified != !math.IsNaN(res.GradMap) ||
			res.GradMap > 1e-4 {
			t.Errorf("%s: GradMap = %g with converged=%t", cfg.name, res.GradMap, res.Converged)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("config count changed: fixture has %d, harness ran %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: config no longer runs", name)
			continue
		}
		diffGolden(t, name, w, g)
	}
}

// diffGolden reports field-level mismatches so a broken port tells you
// WHAT diverged (iterate, cost, trace, events), not just that it did.
func diffGolden(t *testing.T, name string, want, got goldenRecord) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Errorf("%s: %s", name, fmt.Sprintf(format, args...))
	}
	if len(want.W) != len(got.W) {
		fail("W length %d != %d", len(got.W), len(want.W))
	} else {
		for i := range want.W {
			if want.W[i] != got.W[i] {
				fail("W[%d] bits %s != %s", i, got.W[i], want.W[i])
				break
			}
		}
	}
	if got.Iters != want.Iters || got.Rounds != want.Rounds || got.Converged != want.Converged {
		fail("iters/rounds/converged %d/%d/%t != %d/%d/%t",
			got.Iters, got.Rounds, got.Converged, want.Iters, want.Rounds, want.Converged)
	}
	if got.FinalObj != want.FinalObj || got.FinalRelErr != want.FinalRelErr {
		fail("FinalObj/FinalRelErr %s/%s != %s/%s", got.FinalObj, got.FinalRelErr, want.FinalObj, want.FinalRelErr)
	}
	if got.Cost != want.Cost {
		fail("cost %+v != %+v", got.Cost, want.Cost)
	}
	if got.ModelSeconds != want.ModelSeconds {
		fail("ModelSeconds %s != %s", got.ModelSeconds, want.ModelSeconds)
	}
	if got.Retries != want.Retries || got.Failed != want.Failed ||
		got.Degraded != want.Degraded || got.Skipped != want.Skipped || got.FaultStall != want.FaultStall {
		fail("fault stats %d/%d/%d/%d/%s != %d/%d/%d/%d/%s",
			got.Retries, got.Failed, got.Degraded, got.Skipped, got.FaultStall,
			want.Retries, want.Failed, want.Degraded, want.Skipped, want.FaultStall)
	}
	if got.TraceName != want.TraceName {
		fail("trace name %q != %q", got.TraceName, want.TraceName)
	}
	if len(got.Points) != len(want.Points) {
		fail("trace has %d points, want %d", len(got.Points), len(want.Points))
	} else {
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				fail("trace point %d: %+v != %+v", i, got.Points[i], want.Points[i])
				break
			}
		}
	}
	if len(got.Events) != len(want.Events) {
		fail("trace has %d events, want %d", len(got.Events), len(want.Events))
	} else {
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				fail("trace event %d: %+v != %+v", i, got.Events[i], want.Events[i])
				break
			}
		}
	}
}

// TestGoldenDeterminism re-runs a slice of the matrix and insists the
// harness itself is reproducible within one binary — a guard against
// accidentally depending on GOMAXPROCS scheduling or map order in the
// fixtures, which would make the bit-identity comparison meaningless.
func TestGoldenDeterminism(t *testing.T) {
	env := goldenSetup(t)
	for _, name := range []string{
		"rcsfista/p4/packed=true/pipe=false/faults=true",
		"erm/dist/p8/logistic+linesearch",
		"cocoa/p4/localiters+tol",
	} {
		var cfg goldenConfig
		for _, c := range goldenConfigs() {
			if c.name == name {
				cfg = c
				break
			}
		}
		if cfg.run == nil {
			t.Fatalf("config %s not found", name)
		}
		a, err := cfg.run(env)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cfg.run(env)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := snapshot(a), snapshot(b)
		// Wall-clock is the one nondeterministic field and is already
		// excluded from snapshots.
		if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
			t.Errorf("%s: two in-process runs disagree", name)
		}
	}
}

// unbits is the inverse of bits: the fixture's exact float64 back.
func unbits(t *testing.T, s string) float64 {
	t.Helper()
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatalf("bad fixture bit pattern %q: %v", s, err)
	}
	return math.Float64frombits(u)
}

// TestGoldenCompressTier reruns the RC-SFISTA slice of the golden
// matrix with Options.CompressTier set from -compress-tier and holds
// each run to its committed full-precision fixture within the rung's
// trajectory-tracking band, shipping strictly fewer words than the
// fixture wherever communication happens (P > 1). This is the CI
// compression matrix's oracle: same problems, same fixtures, a lossy
// wire, on every transport.
//
// The fixtures pin a fixed 48-iteration budget, far from convergence,
// so the bands measure how closely the quantized trajectory tracks the
// full-precision one mid-flight — tight for f32 (~1e-7 relative
// rounding per step), loose for the dithered int8 rung whose ~0.4%
// per-step rounding visibly shifts an unconverged iterate. The
// at-convergence accuracy contract (i8 within 1e-5, f32 within 1e-6 of
// the uncompressed optimum) is pinned by TestTierMatrix, which runs to
// convergence; here the band is a divergence tripwire, not the
// accuracy promise.
//
// Excluded from the slice: the faulty grid entries and rcsfista/skip
// (the compression x faults interplay is pinned by the dedicated tier
// matrix test), and the tolerance-stopped configs (rcsfista/tol,
// rcsfista/vr/gradmap) whose stopping round can flip when a
// quantization step moves the trajectory across the threshold.
func TestGoldenCompressTier(t *testing.T) {
	tier := *goldenCompressTier
	if tier == "" {
		t.Skip("enable with -compress-tier=f32|i8|auto")
	}
	// Per-tier trajectory bands. The W band is relative to the
	// fixture iterate's infinity norm (covtype iterates reach magnitude
	// ~16 at this budget); the objective band is absolute. Both carry
	// ~3-10x headroom over the measured worst case across the slice:
	// f32 peaked at 1.4e-6 absolute on W (on the since-retired
	// delta-form record; the surviving slice sits inside that), the
	// dithered rungs at ~2 absolute on a 16-magnitude warm-start
	// iterate and 5e-3 on FinalObj at P=4.
	tolW, tolObj := 0.15, 0.05
	if tier == "f32" {
		tolW, tolObj = 2e-6, 2e-6
	}

	// Config name -> rank count, for the words assertion.
	eligible := map[string]int{
		"rcsfista/vr/p1": 1, "rcsfista/vr/p4": 4, "rcsfista/vr/p8": 8,
		"rcsfista/w0/p4":                    4,
		"rcsfista/selfcomm":                 1,
		"sfista/p4":                         4,
		"scenario/rcsfista/en/p4":           4,
		"scenario/rcsfista/en/active/p4":    4,
		"scenario/rcsfista/ridge/p4":        4,
		"scenario/rcsfista/group/p1":        1,
		"scenario/rcsfista/group/active/p4": 4,
	}
	for _, p := range []int{1, 4, 8} {
		eligible[fmt.Sprintf("rcsfista/p%d/packed=true/pipe=false/faults=false", p)] = p
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	env := goldenSetup(t)
	goldenTierInject = tier
	defer func() { goldenTierInject = "" }()

	ran := 0
	for _, cfg := range goldenConfigs() {
		p, ok := eligible[cfg.name]
		if !ok {
			continue
		}
		ran++
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			w, ok := want[cfg.name]
			if !ok {
				t.Fatalf("no fixture for %s", cfg.name)
			}
			res, err := cfg.run(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.W) != len(w.W) {
				t.Fatalf("W length %d != fixture %d", len(res.W), len(w.W))
			}
			scale := 1.0
			for _, s := range w.W {
				if v := math.Abs(unbits(t, s)); v > scale {
					scale = v
				}
			}
			for i := range res.W {
				ref := unbits(t, w.W[i])
				if d := math.Abs(res.W[i] - ref); !(d <= tolW*scale) {
					t.Errorf("W[%d] off by %.3g > %g x scale %.3g under tier %s", i, d, tolW, scale, tier)
					break
				}
			}
			if d := math.Abs(res.FinalObj - unbits(t, w.FinalObj)); !(d <= tolObj) {
				t.Errorf("FinalObj off by %.3g > %g under tier %s", d, tolObj, tier)
			}
			if p > 1 && res.Cost.Words >= w.Cost.Words {
				t.Errorf("shipped %d words, full-precision fixture shipped %d — tier %s must shrink the wire",
					res.Cost.Words, w.Cost.Words, tier)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no eligible configs ran")
	}
}
