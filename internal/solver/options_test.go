package solver

import (
	"math"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	ok := Defaults()
	ok.Gamma = 0.1
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(o *Options){
		func(o *Options) { o.Gamma = 0 },
		func(o *Options) { o.Gamma = -1 },
		func(o *Options) { o.Lambda = -0.1 },
		func(o *Options) { o.MaxIter = 0 },
		func(o *Options) { o.B = 0 },
		func(o *Options) { o.B = 1.5 },
		func(o *Options) { o.K = 0 },
		func(o *Options) { o.S = 0 },
		func(o *Options) { o.EpochLen = -1 },
		func(o *Options) { o.EvalEvery = -1 },
	}
	for i, mutate := range bad {
		o := Defaults()
		o.Gamma = 0.1
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
}

// TestValidateStopCriterionDependencies pins the two silent-stop bugs:
// a relative-error tolerance without a reference optimum, and a
// gradient-mapping tolerance without variance reduction, each leave the
// stopping test permanently false — the solve runs to MaxIter with no
// hint. Both must be rejected up front with an error naming the
// missing dependency.
func TestValidateStopCriterionDependencies(t *testing.T) {
	base := func() Options {
		o := Defaults()
		o.Gamma = 0.1
		return o
	}

	// Tol without FStar: rejected whether FStar is NaN (explicit
	// unknown) or zero (the unset sentinel withDefaults maps to NaN).
	for _, fstar := range []float64{math.NaN(), 0} {
		o := base()
		o.Tol = 1e-3
		o.FStar = fstar
		err := o.Validate()
		if err == nil {
			t.Fatalf("Tol with FStar=%v accepted", fstar)
		}
		if !strings.Contains(err.Error(), "FStar") {
			t.Fatalf("error does not name FStar: %v", err)
		}
	}
	// The same pair is fine once FStar is known, end to end.
	o := base()
	o.Tol = 1e-3
	o.FStar = 1.25
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// GradMapTol without VarianceReduced: the gradient-mapping check
	// runs at snapshot refreshes only.
	o = base()
	o.GradMapTol = 1e-6
	o.VarianceReduced = false
	err := o.Validate()
	if err == nil {
		t.Fatal("GradMapTol without VarianceReduced accepted")
	}
	if !strings.Contains(err.Error(), "VarianceReduced") {
		t.Fatalf("error does not name VarianceReduced: %v", err)
	}
	o.VarianceReduced = true
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// The full solver path must surface the same errors (regression:
	// these used to slip through Validate and run to MaxIter).
	if _, err := RCSFISTA(nil, LocalData{}, Options{Gamma: 0.1, MaxIter: 10, B: 0.5, Tol: 1e-3}); err == nil ||
		!strings.Contains(err.Error(), "FStar") {
		t.Fatalf("RCSFISTA accepted Tol without FStar: %v", err)
	}
	bad := Options{Gamma: 0.1, MaxIter: 10, B: 0.5, GradMapTol: 1e-6}
	if _, err := RCSFISTA(nil, LocalData{}, bad); err == nil ||
		!strings.Contains(err.Error(), "VarianceReduced") {
		t.Fatalf("RCSFISTA accepted GradMapTol without VarianceReduced: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{Gamma: 1, MaxIter: 10, B: 0.5}
	r := o.withDefaults()
	if r.K != 1 || r.S != 1 {
		t.Fatal("K/S defaults wrong")
	}
	if r.EpochLen != 40 {
		t.Fatalf("EpochLen default = %d, want 40", r.EpochLen)
	}
	if r.EvalEvery != 1 {
		t.Fatalf("EvalEvery default = %d", r.EvalEvery)
	}
	if !math.IsNaN(r.FStar) {
		t.Fatal("zero FStar should resolve to NaN (unknown)")
	}
	// S-scaled epoch default.
	o.S = 20
	if r := o.withDefaults(); r.EpochLen != 100 {
		t.Fatalf("EpochLen for S=20 = %d, want 100", r.EpochLen)
	}
	// Explicit values preserved.
	o.EpochLen = 7
	o.EvalEvery = 3
	o.FStar = 0.5
	if r := o.withDefaults(); r.EpochLen != 7 || r.EvalEvery != 3 || r.FStar != 0.5 {
		t.Fatal("explicit values overwritten")
	}
}

func TestGammaFromLipschitz(t *testing.T) {
	if GammaFromLipschitz(4) != 0.25 {
		t.Fatal("GammaFromLipschitz wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on L <= 0")
		}
	}()
	GammaFromLipschitz(0)
}
