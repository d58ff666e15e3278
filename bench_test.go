// Package rcsfista's root benchmark harness regenerates every table
// and figure of the paper's evaluation (Section 5) under `go test
// -bench=.`. Each benchmark runs the corresponding experiment driver
// at bench scale and reports domain-specific metrics alongside ns/op:
// modeled seconds, speedups, rounds — the numbers EXPERIMENTS.md
// records against the paper. Keep -benchtime=1x for a single sweep
// (the drivers are full experiments, not microkernels).
package rcsfista_test

import (
	"fmt"
	"testing"

	"github.com/hpcgo/rcsfista/internal/cabcd"
	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/expt"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	driver := expt.ByID(id)
	if driver == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := expt.DefaultConfig()
	var rep *expt.Report
	for i := 0; i < b.N; i++ {
		rep = driver(cfg)
	}
	b.StopTimer()
	if rep == nil || rep.Text == "" {
		b.Fatal("experiment produced no report")
	}
	if testing.Verbose() {
		b.Logf("\n%s", rep.Text)
	}
}

// BenchmarkTable1CostModel verifies the Table 1 latency/bandwidth/flop
// formulas against the simulated runtime's measured counters.
func BenchmarkTable1CostModel(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Datasets regenerates the dataset inventory of Table 2.
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkParameterBounds evaluates the Eq. 25-28 parameter bounds at
// paper dimensions (covtype k<=2, mnist S<7 anchors).
func BenchmarkParameterBounds(b *testing.B) { runExperiment(b, "bounds") }

// BenchmarkFigure2aSamplingRate regenerates Figure 2(a): convergence
// versus sampling rate b.
func BenchmarkFigure2aSamplingRate(b *testing.B) { runExperiment(b, "figure2a") }

// BenchmarkFigure2bOverlapConvergence regenerates Figure 2(b): k does
// not change convergence (identical iterates).
func BenchmarkFigure2bOverlapConvergence(b *testing.B) { runExperiment(b, "figure2b") }

// BenchmarkFigure3HessianReuse regenerates Figure 3: the effect of the
// Hessian-reuse parameter S on rounds-to-tolerance.
func BenchmarkFigure3HessianReuse(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkFigure4SpeedupVsK regenerates Figure 4: RC-SFISTA speedup
// over SFISTA versus k for several processor counts.
func BenchmarkFigure4SpeedupVsK(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkFigure5SpeedupVsS regenerates Figure 5: speedup versus S at
// high processor count with tuned k.
func BenchmarkFigure5SpeedupVsS(b *testing.B) { runExperiment(b, "figure5") }

// BenchmarkFigure6VsProxCoCoA regenerates Figure 6: error-vs-time
// curves against ProxCoCoA.
func BenchmarkFigure6VsProxCoCoA(b *testing.B) { runExperiment(b, "figure6") }

// BenchmarkTable3ProxCoCoASpeedup regenerates Table 3: speedup over
// ProxCoCoA to tol=1e-2.
func BenchmarkTable3ProxCoCoASpeedup(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure7ProxNewton regenerates Figure 7: Proximal Newton
// with RC-SFISTA versus FISTA inner solvers.
func BenchmarkFigure7ProxNewton(b *testing.B) { runExperiment(b, "figure7") }

// --- Ablation benches (DESIGN.md Section 5) ---

func ablationProblem(b *testing.B) (*data.Problem, solver.Options) {
	b.Helper()
	p, err := data.LoadWith("covtype", 4000, 54, 42)
	if err != nil {
		b.Fatal(err)
	}
	l := solver.SampledLipschitz(p.X, p.Y, 0.1, 8, 777)
	o := solver.Defaults()
	o.Lambda = p.Lambda
	o.Gamma = solver.GammaFromLipschitz(l)
	o.MaxIter = 128
	o.Tol = 0
	o.B = 0.1
	o.EvalEvery = 128
	return p, o
}

// BenchmarkAblationMachines compares the modeled benefit of k = 8
// iteration-overlapping across machine profiles: the win shrinks on a
// low-latency network and grows on a high-latency one (Eq. 25).
func BenchmarkAblationMachines(b *testing.B) {
	p, o := ablationProblem(b)
	for _, m := range []perf.Machine{perf.LowLatency(), perf.Comet(), perf.HighLatency()} {
		b.Run(m.Name, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				base := runModel(b, p, o, m, 16, 1)
				over := runModel(b, p, o, m, 16, 8)
				gain = base / over
			}
			b.ReportMetric(gain, "speedup-k8")
		})
	}
}

func runModel(b *testing.B, p *data.Problem, o solver.Options, m perf.Machine, procs, k int) float64 {
	b.Helper()
	o.K = k
	w := dist.NewWorld(procs, m)
	res, err := solver.SolveDistributed(w, p.X, p.Y, o)
	if err != nil {
		b.Fatal(err)
	}
	return res.ModelSeconds
}

// BenchmarkKernelSampledGram measures the stage-B kernel: one sampled
// Gram accumulation at covtype shape.
func BenchmarkKernelSampledGram(b *testing.B) {
	p, _ := ablationProblem(b)
	d := p.X.Rows
	h := make([]float64, d*d)
	r := make([]float64, d)
	cols := make([]int, 400)
	for i := range cols {
		cols[i] = i * 7 % p.X.Cols
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm := mat.DenseOf(d, d, h)
		sparse.SampledGram(p.X, hm, r, p.Y, cols, 1.0/400, nil)
	}
}

// BenchmarkKernelSampledGramPacked measures the packed stage-B kernel:
// the same sampled Gram accumulation into the upper triangle only
// (~half the flops and writes of BenchmarkKernelSampledGram).
func BenchmarkKernelSampledGramPacked(b *testing.B) {
	p, _ := ablationProblem(b)
	d := p.X.Rows
	h := make([]float64, mat.PackedLen(d))
	r := make([]float64, d)
	cols := make([]int, 400)
	for i := range cols {
		cols[i] = i * 7 % p.X.Cols
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm := mat.SymPackedOf(d, h)
		sparse.SampledGramPacked(p.X, hm, r, p.Y, cols, 1.0/400, nil)
	}
}

// BenchmarkKernelAllreduce measures one shared allreduce of a k=8
// Hessian batch at P=16, in both wire formats. The packed payload is
// k*(d(d+1)/2 + d) words against the dense k*(d^2 + d).
func BenchmarkKernelAllreduce(b *testing.B) {
	const d, k, procs = 54, 8, 16
	for _, bc := range []struct {
		name    string
		payload int
	}{
		{"packed", k * (mat.PackedLen(d) + d)},
		{"dense", k * (d*d + d)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := dist.NewWorld(procs, perf.Comet())
			for i := 0; i < b.N; i++ {
				err := w.Run(func(c dist.Comm) error {
					local := make([]float64, bc.payload)
					for j := range local {
						local[j] = float64(c.Rank() + j)
					}
					c.AllreduceShared(local)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.payload), "words/round")
		})
	}
}

// BenchmarkRoundWords measures the engine's actual per-round allreduce
// volume on the covtype shape (d=54, k=8, P=16): k*(d(d+1)/2+d) = 12312
// words per round, against the k*(d^2+d) = 23760 a dense-unpacked slot
// would ship (held as a test reference in internal/solver, not run
// here).
func BenchmarkRoundWords(b *testing.B) {
	p, o := ablationProblem(b)
	const procs, k = 16, 8
	o.K = k
	o.MaxIter = 32
	o.EvalEvery = 32
	o.VarianceReduced = false
	var wordsPerRound float64
	for i := 0; i < b.N; i++ {
		w := dist.NewWorld(procs, perf.Comet())
		res, err := solver.SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			b.Fatal(err)
		}
		lg := float64(perf.Log2Ceil(procs))
		wordsPerRound = float64(res.Cost.Words) / float64(res.Rounds) / lg
	}
	b.ReportMetric(wordsPerRound, "words/round")
}

// BenchmarkAblationCABCDBandwidth contrasts the two
// communication-avoiding strategies on the same data: CA-BCD's
// per-update word volume grows ~linearly with its unrolling parameter
// s (one (s*bs)^2-word Gram per s updates), while RC-SFISTA's stays
// constant in k — the core claim of the paper's introduction.
func BenchmarkAblationCABCDBandwidth(b *testing.B) {
	p, o := ablationProblem(b)
	const procs = 8
	for i := 0; i < b.N; i++ {
		// RC-SFISTA words per update at k = 1 and k = 8.
		rcWords := func(k int) float64 {
			oo := o
			oo.K = k
			oo.MaxIter = 32
			oo.EvalEvery = 32
			w := dist.NewWorld(procs, perf.Comet())
			res, err := solver.SolveDistributed(w, p.X, p.Y, oo)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Cost.Words) / float64(res.Iters)
		}
		// CA-BCD words per update at s = 1 and s = 8.
		bcdWords := func(s int) float64 {
			opts := cabcd.Options{
				Lambda2: 0.05, BlockSize: 4, S: s, MaxRounds: 32 / s,
				Seed: 42, EvalEvery: 1000,
			}
			w := dist.NewWorld(procs, perf.Comet())
			res, err := cabcd.SolveDistributed(w, p.X, p.Y, opts)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Cost.Words) / float64(res.Iters)
		}
		rcRatio := rcWords(8) / rcWords(1)
		bcdRatio := bcdWords(8) / bcdWords(1)
		b.ReportMetric(rcRatio, "rc-words-ratio-k8")
		b.ReportMetric(bcdRatio, "cabcd-words-ratio-s8")
	}
}

// BenchmarkExtensionScaling regenerates the strong-scaling
// decomposition (extension artifact).
func BenchmarkExtensionScaling(b *testing.B) { runExperiment(b, "scaling") }

// BenchmarkExtensionMachines regenerates the machine-sensitivity table
// (extension artifact).
func BenchmarkExtensionMachines(b *testing.B) { runExperiment(b, "machines") }

// BenchmarkExtensionPipeline regenerates the nonblocking pipelined-round
// sweep: blocking vs overlapped stage-C allreduce across k (extension
// artifact).
func BenchmarkExtensionPipeline(b *testing.B) { runExperiment(b, "pipeline") }

// BenchmarkExtensionTransport runs the same solve on every registered
// dist backend (in-process channels and localhost TCP), asserts
// bit-identical results and calibrates alpha/beta/gamma on each
// (extension artifact).
func BenchmarkExtensionTransport(b *testing.B) { runExperiment(b, "transport") }

// BenchmarkAblationEpochLen sweeps the variance-reduction epoch length
// at S = 5: too-long epochs let the switched-Hessian momentum dynamics
// resonate (DESIGN.md Section 6), too-short epochs waste acceleration.
// Reports rounds-to-tolerance per epoch length.
func BenchmarkAblationEpochLen(b *testing.B) {
	p, o := ablationProblem(b)
	_, fstar := solver.Reference(p.X, p.Y, p.Lambda, 10000)
	for _, epoch := range []int{10, 25, 50, 200} {
		b.Run(fmt.Sprintf("epoch%d", epoch), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				oo := o
				oo.S = 5
				oo.FStar = fstar
				oo.Tol = 1e-2
				oo.MaxIter = 4000
				oo.EpochLen = epoch
				oo.EvalEvery = 5
				c := dist.NewSelfComm(perf.Comet())
				res, err := solver.RCSFISTA(c, solver.Partition(p.X, p.Y, 1, 0), oo)
				if err != nil {
					b.Fatal(err)
				}
				if res.Converged {
					rounds = float64(res.Rounds)
				} else {
					rounds = -1 // diverged or budget exhausted
				}
			}
			b.ReportMetric(rounds, "rounds-to-tol")
		})
	}
}
