package cocoa

import (
	"context"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

func testSetup(t *testing.T) (*data.Problem, float64) {
	t.Helper()
	p := data.Generate(data.GenSpec{D: 24, M: 400, Density: 0.5, Lambda: 0.1, Seed: 11})
	_, fstar := solver.Reference(p.X, p.Y, p.Lambda, 5000)
	return p, fstar
}

func TestProxCoCoAConverges(t *testing.T) {
	p, fstar := testSetup(t)
	opts := Options{Lambda: p.Lambda, Rounds: 400, Tol: 1e-2, FStar: fstar, Seed: 3}
	w := dist.NewWorld(4, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, opts)
	if err != nil {
		t.Fatalf("SolveDistributed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not reach tol: relerr=%g after %d rounds", res.FinalRelErr, res.Rounds)
	}
	if len(res.W) != p.X.Rows {
		t.Fatalf("assembled w has %d coords, want %d", len(res.W), p.X.Rows)
	}
}

func TestProxCoCoAMonotoneProgress(t *testing.T) {
	// CoCoA with sigma' = K is a safe aggregation: the objective must
	// be non-increasing up to tiny slack.
	p, fstar := testSetup(t)
	opts := Options{Lambda: p.Lambda, Rounds: 60, FStar: fstar, Seed: 5}
	w := dist.NewWorld(3, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Trace.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Obj > pts[i-1].Obj*(1+1e-9) {
			t.Fatalf("objective increased at round %d: %g -> %g", pts[i].Round, pts[i-1].Obj, pts[i].Obj)
		}
	}
}

func TestProxCoCoASingleWorkerMatchesCD(t *testing.T) {
	// With one worker, sigma' = 1 and the subproblem is the exact
	// problem: a long run must reach the reference optimum closely.
	p, fstar := testSetup(t)
	opts := Options{Lambda: p.Lambda, Rounds: 800, FStar: fstar, Seed: 9}
	c := dist.NewSelfComm(perf.Comet())
	xRows := p.X.ToCSR()
	local := Partition(xRows, p.Y, 1, 0)
	res, err := SolveContext(context.Background(), c, local, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRelErr > 1e-4 {
		t.Fatalf("single-worker ProxCoCoA stalled: relerr=%g", res.FinalRelErr)
	}
}

func TestPartitionCoversAllFeatures(t *testing.T) {
	p, _ := testSetup(t)
	xRows := p.X.ToCSR()
	total := 0
	for rank := 0; rank < 5; rank++ {
		l := Partition(xRows, p.Y, 5, rank)
		total += l.Rows.Rows
		if l.Rows.Cols != p.X.Cols {
			t.Fatalf("rank %d block has %d cols, want %d", rank, l.Rows.Cols, p.X.Cols)
		}
	}
	if total != p.X.Rows {
		t.Fatalf("partition covers %d features, want %d", total, p.X.Rows)
	}
}

func TestWorkerCountAffectsOnlySpeed(t *testing.T) {
	// More workers => more conservative sigma' => typically more
	// rounds, but the method must still converge.
	p, fstar := testSetup(t)
	for _, procs := range []int{2, 8} {
		opts := Options{Lambda: p.Lambda, Rounds: 1500, Tol: 1e-2, FStar: fstar, Seed: 1}
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("P=%d did not converge: relerr=%g", procs, res.FinalRelErr)
		}
	}
}

func TestRejectsNegativeLambda(t *testing.T) {
	p, _ := testSetup(t)
	c := dist.NewSelfComm(perf.Comet())
	local := Partition(p.X.ToCSR(), p.Y, 1, 0)
	if _, err := SolveContext(context.Background(), c, local, Options{Lambda: -1}); err == nil {
		t.Fatal("expected error for negative lambda")
	}
	if _, err := SolveContext(context.Background(), c, LocalData{}, Options{Lambda: 0.1}); err == nil {
		t.Fatal("expected error for nil local data")
	}
	_ = math.NaN()
}

func TestLocalItersTradeoff(t *testing.T) {
	// More local CD steps per round => fewer rounds to tolerance.
	p, fstar := testSetup(t)
	rounds := func(localIters int) int {
		opts := Options{
			Lambda: p.Lambda, Rounds: 3000, LocalIters: localIters,
			Tol: 1e-2, FStar: fstar, Seed: 4,
		}
		w := dist.NewWorld(4, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("H=%d did not converge", localIters)
		}
		return res.Rounds
	}
	few := rounds(2)
	many := rounds(24)
	if many >= few {
		t.Fatalf("more local work did not cut rounds: H=24 took %d, H=2 took %d", many, few)
	}
}

func TestSigmaPrimeOverride(t *testing.T) {
	// sigma' = 1 on multiple workers is an unsafe (aggressive)
	// subproblem; it must still run, and the safe default must beat a
	// deliberately huge sigma' in rounds-to-tol.
	p, fstar := testSetup(t)
	run := func(sigma float64) (*solver.Result, error) {
		opts := Options{
			Lambda: p.Lambda, Rounds: 4000, SigmaPrime: sigma,
			Tol: 1e-2, FStar: fstar, Seed: 6,
		}
		w := dist.NewWorld(4, perf.Comet())
		return SolveDistributed(w, p.X, p.Y, opts)
	}
	safe, err := run(0) // default sigma' = K = 4
	if err != nil || !safe.Converged {
		t.Fatalf("default sigma' failed: %v", err)
	}
	slow, err := run(64)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Converged && slow.Rounds <= safe.Rounds {
		t.Fatalf("sigma'=64 (%d rounds) should not beat sigma'=K (%d rounds)",
			slow.Rounds, safe.Rounds)
	}
}

func TestCocoaWithIdleWorkers(t *testing.T) {
	// More workers than features: some ranks own zero coordinates and
	// must still participate in every collective without deadlock.
	p := data.Generate(data.GenSpec{D: 5, M: 200, Density: 1, Lambda: 0.05, Seed: 12})
	_, fstar := solver.Reference(p.X, p.Y, p.Lambda, 4000)
	opts := Options{Lambda: p.Lambda, Rounds: 2000, Tol: 1e-2, FStar: fstar, Seed: 12}
	w := dist.NewWorld(9, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("idle-worker run did not converge: relerr=%g", res.FinalRelErr)
	}
	if len(res.W) != 5 {
		t.Fatalf("assembled w has %d coords", len(res.W))
	}
}

func TestCocoaCostCharging(t *testing.T) {
	// Each round moves the m-word prediction delta through a log2(P)
	// tree.
	p, _ := testSetup(t)
	const procs, rounds = 4, 10
	opts := Options{Lambda: p.Lambda, Rounds: rounds, Seed: 13}
	w := dist.NewWorld(procs, perf.Comet())
	if _, err := SolveDistributed(w, p.X, p.Y, opts); err != nil {
		t.Fatal(err)
	}
	lg := int64(perf.Log2Ceil(procs))
	m := int64(p.X.Cols)
	// Allgather at the end adds P-1 messages; rounds add lg each.
	wantMin := rounds * lg * m
	got := w.RankCost(0).Words
	if got < wantMin {
		t.Fatalf("words = %d, want >= %d", got, wantMin)
	}
}

func TestIdleWorkersWithExplicitLocalIters(t *testing.T) {
	// Regression: LocalIters > 0 on a worker owning zero coordinates
	// must not panic (Intn(0)).
	p := data.Generate(data.GenSpec{D: 3, M: 100, Density: 1, Lambda: 0.05, Seed: 14})
	opts := Options{Lambda: p.Lambda, Rounds: 20, LocalIters: 10, Seed: 14}
	w := dist.NewWorld(6, perf.Comet())
	if _, err := SolveDistributed(w, p.X, p.Y, opts); err != nil {
		t.Fatal(err)
	}
}

func TestCocoaDegeneratePartition(t *testing.T) {
	// P exceeds BOTH the sample count m and the feature count d: every
	// partition boundary case at once. The run must not deadlock and
	// must return a well-formed assembled w.
	p := data.Generate(data.GenSpec{D: 3, M: 4, Density: 1, Lambda: 0.05, Seed: 15})
	opts := Options{Lambda: p.Lambda, Rounds: 50, Seed: 15}
	w := dist.NewWorld(6, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != p.X.Rows {
		t.Fatalf("assembled w has %d coords, want %d", len(res.W), p.X.Rows)
	}
	for _, v := range res.W {
		if math.IsNaN(v) {
			t.Fatal("assembled w contains NaN")
		}
	}
	if res.Trace == nil || len(res.Trace.Points) == 0 {
		t.Fatal("missing trace")
	}
}
