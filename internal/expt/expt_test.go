package expt

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// The experiment drivers are exercised end-to-end by the root
// benchmarks; these tests cover the fast drivers and the suite's
// structural claims so `go test ./...` still validates the harness.

func TestIDsResolve(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("%d experiment ids", len(ids))
	}
	for _, id := range ids {
		if ByID(id) == nil {
			t.Fatalf("id %q does not resolve", id)
		}
	}
	if ByID("nope") != nil || ByID("pipeline") != nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTable2Driver(t *testing.T) {
	rep := Table2(DefaultConfig())
	if rep.ID != "table2" || len(rep.Tables) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Tables[0].Rows) != 5 {
		t.Fatalf("table has %d rows, want 5", len(rep.Tables[0].Rows))
	}
	for _, name := range []string{"abalone", "susy", "covtype", "mnist", "epsilon"} {
		if !strings.Contains(rep.Text, name) {
			t.Fatalf("missing %s in:\n%s", name, rep.Text)
		}
	}
}

func TestBoundsDriverAnchors(t *testing.T) {
	rep := Bounds(DefaultConfig())
	// The two quantitative anchors the paper states (Section 5.3).
	if !strings.Contains(rep.Text, "covtype k_max (Eq. 25) = 2.4") {
		t.Fatalf("covtype anchor missing:\n%s", rep.Text)
	}
	if !strings.Contains(rep.Text, "mnist S bound (Eq. 27, k=1) = 6.5") {
		t.Fatalf("mnist anchor missing:\n%s", rep.Text)
	}
}

// TestScenariosDriverFiltered runs the scenarios experiment restricted
// to its most demanding cells — the group-lasso screening comparison
// (whose exactness and words assertions panic on violation) and the
// quantile Proximal Newton fit — so `go test ./...` exercises the
// matrix contract without paying for the full sweep.
func TestScenariosDriverFiltered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reg = "group"
	cfg.Loss = "quantile"
	rep := Scenarios(cfg)
	if rep.ID != "scenarios" || len(rep.Tables) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rows := len(rep.Tables[0].Rows); rows != 3 {
		t.Fatalf("reg table has %d rows, want 3 (P in {1,4,8})", rows)
	}
	if rows := len(rep.Tables[1].Rows); rows != 1 {
		t.Fatalf("loss table has %d rows, want 1", rows)
	}
	if !strings.Contains(rep.Text, "group") || !strings.Contains(rep.Text, "quantile") {
		t.Fatalf("filtered rows missing:\n%s", rep.Text)
	}
}

func TestDimsKnownShapes(t *testing.T) {
	for _, name := range []string{"abalone", "susy", "covtype", "mnist", "epsilon"} {
		for _, s := range []Scale{Bench, Full} {
			m, d := dims(name, s)
			if m <= 0 || d <= 0 {
				t.Fatalf("%s/%v: %dx%d", name, s, m, d)
			}
		}
	}
	mb, _ := dims("covtype", Bench)
	mf, _ := dims("covtype", Full)
	if mf <= mb {
		t.Fatal("full scale not larger than bench scale")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown shape should panic")
		}
	}()
	dims("nope", Bench)
}

func TestPrepareCachesInstances(t *testing.T) {
	cfg := DefaultConfig()
	a := prepare(cfg, "susy")
	b := prepare(cfg, "susy")
	if a != b {
		t.Fatal("prepare did not cache")
	}
	if a.fstar <= 0 || a.gamma <= 0 || a.lip <= 0 {
		t.Fatalf("instance not fully prepared: %+v", a)
	}
}

func TestGammaForBCaching(t *testing.T) {
	in := prepare(DefaultConfig(), "susy")
	g1 := in.gammaForB(0.25)
	g2 := in.gammaForB(0.25)
	if g1 != g2 {
		t.Fatal("gammaForB not deterministic")
	}
	gFull := in.gammaForB(1.0)
	if g1 > gFull*1.01 {
		t.Fatalf("subsampled step %g larger than full-batch %g", g1, gFull)
	}
}

func TestFigure2bIdentityClaim(t *testing.T) {
	// The headline exact-arithmetic claim must hold in the rendered
	// report: iterates identical across k.
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := Figure2b(DefaultConfig())
	if !strings.Contains(rep.Text, "identical across k (exact-arithmetic claim of Section 3.2): true") {
		t.Fatalf("k-invariance violated:\n%s", rep.Text)
	}
}

func TestTable1LatencyClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := Table1(DefaultConfig())
	if !strings.Contains(rep.Text, "latency and bandwidth counters match closed form exactly: true") {
		t.Fatalf("Table 1 latency/bandwidth mismatch:\n%s", rep.Text)
	}
}

// TestClosedFormMatchesEngine is the fence between the Table 1 closed
// forms and the engine's charges: on the golden problem shape in Table
// 1's configuration, RCSFISTACost must equal Result.Cost exactly on
// messages and words at every (P, k), and SFISTACost must equal the
// k = 1 run (SFISTA) on both and every k's words (k does not change
// bandwidth). Flops are big-O; with the tree allreduce's reduction
// flops added — one add per received word, so exactly the charged W —
// they stay inside the band below.
func TestClosedFormMatchesEngine(t *testing.T) {
	const n = 64
	const fLo, fHi = 1.0, 2.5
	prob, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := solver.Defaults()
	o.Lambda = prob.Lambda
	o.Gamma = solver.GammaFromLipschitz(prox.EstimateLipschitz(prob.X, 50, nil, nil))
	o.B = 0.1
	for _, p := range []int{1, 2, 4, 8} {
		sf := perf.SFISTACost(perf.AlgoParams{N: n, P: p, D: prob.X.Rows,
			MBar: int(o.B * float64(prob.X.Cols)), Fill: prob.Density()})
		var sfista perf.Cost
		for _, k := range []int{1, 4, 8} {
			w, err := dist.NewWorldOn("chan", p, perf.Comet())
			if err != nil {
				t.Fatal(err)
			}
			meas, form := table1Costs(w, prob, o, n, k)
			if meas.Messages != form.Messages || meas.Words != form.Words {
				t.Errorf("P=%d k=%d: engine L=%d W=%d, RCSFISTACost L=%d W=%d",
					p, k, meas.Messages, meas.Words, form.Messages, form.Words)
			}
			if k == 1 {
				sfista = meas
			}
			if sf.Messages != sfista.Messages || sf.Words != meas.Words {
				t.Errorf("P=%d k=%d: SFISTACost L=%d W=%d, engine k=1 L=%d, k=%d W=%d",
					p, k, sf.Messages, sf.Words, sfista.Messages, k, meas.Words)
			}
			ratio := float64(meas.Flops) / float64(form.Flops+form.Words)
			t.Logf("P=%d k=%d: F meas %d, form %d + reduction %d, ratio %.3f", p, k, meas.Flops, form.Flops, form.Words, ratio)
			if ratio < fLo || ratio > fHi {
				t.Errorf("P=%d k=%d: flop ratio %.3f outside [%g, %g]", p, k, ratio, fLo, fHi)
			}
		}
	}
}

func TestExtensionDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Scaling(DefaultConfig())
	if sc.ID != "scaling" || len(sc.Tables) != 1 || len(sc.Tables[0].Rows) == 0 {
		t.Fatalf("scaling report: %+v", sc)
	}
	mc := Machines(DefaultConfig())
	if mc.ID != "machines" || !strings.Contains(mc.Text, "high-latency") {
		t.Fatalf("machines report:\n%s", mc.Text)
	}
	// The Eq. 25 trend: high-latency row must show larger speedups
	// than low-latency (structural check on the rendered rows).
	var lowRow, hiRow string
	for _, r := range mc.Tables[0].Rows {
		switch r[0] {
		case "low-latency":
			lowRow = r[len(r)-1]
		case "high-latency":
			hiRow = r[len(r)-1]
		}
	}
	if lowRow == "" || hiRow == "" {
		t.Fatal("machine rows missing")
	}
	var lo, hi float64
	fmt.Sscanf(lowRow, "%fx", &lo)
	fmt.Sscanf(hiRow, "%fx", &hi)
	if hi <= lo {
		t.Fatalf("high-latency speedup %v not above low-latency %v", hi, lo)
	}
}
