package solver

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

func TestParseTierConfig(t *testing.T) {
	cases := []struct {
		in    string
		on    bool
		auto  bool
		fixed dist.Tier
		err   bool
	}{
		{in: "", on: false},
		{in: "off", on: false},
		{in: "f64", on: false},
		{in: "f32", on: true, fixed: dist.TierF32},
		{in: "i8", on: true, fixed: dist.TierI8},
		{in: "auto", on: true, auto: true},
		{in: "int8", err: true},
		{in: "F32", err: true},
	}
	for _, c := range cases {
		tc, err := parseTierConfig(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseTierConfig(%q): want error, got %+v", c.in, tc)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseTierConfig(%q): %v", c.in, err)
			continue
		}
		if tc.on != c.on || tc.auto != c.auto || tc.fixed != c.fixed {
			t.Errorf("parseTierConfig(%q) = %+v, want on=%t auto=%t fixed=%v",
				c.in, tc, c.on, c.auto, c.fixed)
		}
	}
}

// bareComm strips the compressed-collective capability from a real
// transport: interface embedding promotes only dist.Comm's methods, so
// the F32Allreducer/I8Allreducer type assertions fail on the wrapper.
type bareComm struct{ dist.Comm }

func TestValidateTierSupport(t *testing.T) {
	c := dist.NewSelfComm(perf.Comet())
	for _, s := range []string{"", "f32", "i8", "auto"} {
		tc, err := parseTierConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateTierSupport(c, tc); err != nil {
			t.Errorf("SelfComm should support tier %q: %v", s, err)
		}
	}
	bare := bareComm{c}
	for _, s := range []string{"f32", "i8", "auto"} {
		tc, _ := parseTierConfig(s)
		if err := validateTierSupport(bare, tc); err == nil {
			t.Errorf("capability-stripped comm accepted tier %q", s)
		}
	}
	// Off requires nothing, even from a bare transport.
	if err := validateTierSupport(bare, tierConfig{}); err != nil {
		t.Errorf("off tier should need no capability: %v", err)
	}
}

func TestCompressTierRejectsUnsupportedTransport(t *testing.T) {
	p, gamma, fstar := testProblem(t, 20, 200, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.CompressTier = "i8"
	bare := bareComm{dist.NewSelfComm(perf.Comet())}
	local := Partition(p.X, p.Y, 1, 0)
	if _, err := RCSFISTA(bare, local, o); err == nil ||
		!strings.Contains(err.Error(), "CompressTier") {
		t.Fatalf("want CompressTier capability error, got %v", err)
	}
}

func TestCompressTierOptionValidation(t *testing.T) {
	base := func() Options {
		p := Defaults()
		p.Lambda, p.Gamma = 0.1, 0.01
		return p
	}
	o := base()
	o.CompressTier = "int8"
	if err := o.Validate(); err == nil {
		t.Error("CompressTier=int8 validated")
	}
	o = base()
	o.CompressTier = "auto"
	if err := o.Validate(); err != nil {
		t.Errorf("CompressTier=auto rejected: %v", err)
	}
	o = base()
	o.CompressTier = "f32"
	if err := o.Validate(); err != nil {
		t.Errorf("CompressTier=f32 rejected: %v", err)
	}

	// withDefaults: a compressed rung survives, the no-compression
	// spellings normalize to empty.
	o = base()
	o.CompressTier = "f32"
	if d := o.withDefaults(); d.CompressTier != "f32" {
		t.Errorf("CompressTier=f32 defaulted to %q", d.CompressTier)
	}
	for _, s := range []string{"off", "f64"} {
		o = base()
		o.CompressTier = s
		if d := o.withDefaults(); d.CompressTier != "" {
			t.Errorf("CompressTier=%q normalized to %q, want empty", s, d.CompressTier)
		}
	}
}

// tierLadder caches the shared converged-budget lasso instance the
// ladder tests run: generated once, solved many times.
var tierLadder struct {
	once sync.Once
	prob *data.Problem
	opts Options
}

func tierLadderSetup(t *testing.T) (*data.Problem, Options) {
	t.Helper()
	tierLadder.once.Do(func() {
		p := data.Generate(data.GenSpec{D: 48, M: 900, Density: 0.3, Lambda: 0.1, Seed: 7, NoiseStd: 0.01})
		l := prox.EstimateLipschitz(p.X, 50, nil, nil)
		o := Defaults()
		o.Lambda = p.Lambda
		o.Gamma = GammaFromLipschitz(l)
		o.MaxIter = 1500
		o.Tol = 0 // fixed budget, long enough that every run converges
		o.B = 0.2
		o.K = 2
		o.S = 2
		tierLadder.prob, tierLadder.opts = p, o
	})
	return tierLadder.prob, tierLadder.opts
}

// tierSolve runs the shared ladder problem at P ranks with the given
// tier over the chan backend and returns the root result.
func tierSolve(t *testing.T, p int, tier string) *Result {
	t.Helper()
	prob, o := tierLadderSetup(t)
	o.CompressTier = tier
	w := dist.NewWorld(p, perf.Comet())
	res, err := SolveDistributed(w, prob.X, prob.Y, o)
	if err != nil {
		t.Fatalf("SolveDistributed(P=%d, tier=%q): %v", p, tier, err)
	}
	return res
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// TestCompressTierLadder pins the accuracy-vs-words contract of the
// quantized collective ladder at convergence, against the same-budget
// uncompressed run. f32 agrees to 1e-6 on both the iterate and the
// objective. Fixed i8 agrees to 1e-5 on the objective; its iterate
// sits at the dither noise floor (the stage-C Gram batch is O(1) data
// that never shrinks as the run converges, so the ~0.4% per-round
// quantization leaves a persistent ~1e-3 jitter on W that the
// quadratically-insensitive objective does not see). auto recovers
// 1e-5 on the iterate too — its whole point: i8 words while the
// gradient dominates, tightening to f32 for the endgame. The modeled
// wire words strictly decrease down the ladder (f64 > f32 > i8), and
// a rerun of the i8 cell is bit-identical — the dithered quantizer is
// seeded by element index, never by wall clock.
func TestCompressTierLadder(t *testing.T) {
	const procs = 4
	base := tierSolve(t, procs, "")
	f32 := tierSolve(t, procs, "f32")
	i8 := tierSolve(t, procs, "i8")
	auto := tierSolve(t, procs, "auto")

	check := func(name string, res *Result, tolW, tolObj float64) {
		t.Helper()
		if d := maxAbsDiff(res.W, base.W); !(d <= tolW) {
			t.Errorf("%s: max |dW| = %g > %g", name, d, tolW)
		}
		if d := math.Abs(res.FinalObj - base.FinalObj); !(d <= tolObj) {
			t.Errorf("%s: |dF| = %g > %g", name, d, tolObj)
		}
	}
	check("f32", f32, 1e-6, 1e-6)
	check("i8", i8, 5e-3, 1e-5)
	check("auto", auto, 1e-5, 1e-5)

	if !(i8.Cost.Words < f32.Cost.Words && f32.Cost.Words < base.Cost.Words) {
		t.Errorf("ladder words must strictly decrease: f64 %d, f32 %d, i8 %d",
			base.Cost.Words, f32.Cost.Words, i8.Cost.Words)
	}
	if auto.Cost.Words >= base.Cost.Words {
		t.Errorf("auto shipped %d words, uncompressed %d", auto.Cost.Words, base.Cost.Words)
	}

	again := tierSolve(t, procs, "i8")
	for i := range i8.W {
		if math.Float64bits(again.W[i]) != math.Float64bits(i8.W[i]) {
			t.Fatalf("i8 rerun diverged at W[%d]: %x vs %x",
				i, math.Float64bits(again.W[i]), math.Float64bits(i8.W[i]))
		}
	}
}

// TestCompressTierSingleRank: the ladder at P=1 — no tree edges, no
// quantized payloads to pay for, and the auto policy must degenerate
// to full precision (every tier prices to zero modeled seconds, ties
// break toward precision), reproducing the uncompressed run bit for
// bit.
func TestCompressTierSingleRank(t *testing.T) {
	base := tierSolve(t, 1, "")
	auto := tierSolve(t, 1, "auto")
	for i := range base.W {
		if math.Float64bits(auto.W[i]) != math.Float64bits(base.W[i]) {
			t.Fatalf("auto at P=1 diverged from uncompressed at W[%d]", i)
		}
	}
	// Fixed tiers still quantize at P=1 (the tier is a wire format, not
	// a topology decision), so only the noise-floor tolerance holds.
	i8 := tierSolve(t, 1, "i8")
	if d := maxAbsDiff(i8.W, base.W); !(d <= 5e-3) {
		t.Errorf("i8 at P=1: max |dW| = %g > 5e-3", d)
	}
	if d := math.Abs(i8.FinalObj - base.FinalObj); !(d <= 1e-5) {
		t.Errorf("i8 at P=1: |dF| = %g > 1e-5", d)
	}
}
