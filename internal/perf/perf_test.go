package perf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCometParameters(t *testing.T) {
	m := Comet()
	// The calibration the paper reports in Sections 5.3.
	if m.Alpha != 1e-6 || m.Beta != 1.42e-10 || m.Gamma != 4e-10 {
		t.Fatalf("Comet parameters changed: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineValidate(t *testing.T) {
	bad := Machine{Name: "bad", Alpha: 0, Beta: 1, Gamma: 1}
	if bad.Validate() == nil {
		t.Fatal("expected validation error")
	}
	for _, m := range []Machine{Comet(), LowLatency(), HighLatency()} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestSecondsIsLinear(t *testing.T) {
	m := Machine{Name: "unit", Alpha: 2, Beta: 3, Gamma: 5}
	c := Cost{Flops: 7, Messages: 11, Words: 13}
	want := 5.0*7 + 2.0*11 + 3.0*13
	if got := m.Seconds(c); got != want {
		t.Fatalf("Seconds = %g, want %g", got, want)
	}
}

func TestCostNilSafety(t *testing.T) {
	var c *Cost
	c.AddFlops(10)
	c.AddMessages(1, 2)
	c.Add(Cost{Flops: 1})
	// No panic: the point of nil-safe charging.
}

func TestCostAccumulation(t *testing.T) {
	var c Cost
	c.AddFlops(5)
	c.AddMessages(3, 10)
	if c.Flops != 5 || c.Messages != 3 || c.Words != 30 {
		t.Fatalf("cost = %+v", c)
	}
	c.Add(Cost{Flops: 1, Messages: 1, Words: 1})
	if c.Flops != 6 || c.Messages != 4 || c.Words != 31 {
		t.Fatalf("after Add: %+v", c)
	}
	d := c.Sub(Cost{Flops: 6, Messages: 4, Words: 31})
	if d != (Cost{}) {
		t.Fatalf("Sub: %+v", d)
	}
}

func TestCostStallAccounting(t *testing.T) {
	var c Cost
	c.AddStall(0.25)
	c.AddStall(0.5)
	if c.StallSec != 0.75 {
		t.Fatalf("StallSec = %g", c.StallSec)
	}
	var nilC *Cost
	nilC.AddStall(1) // nil-safe like the other chargers

	m := Machine{Name: "unit", Alpha: 2, Beta: 3, Gamma: 5}
	base := Cost{Flops: 1, Messages: 1, Words: 1}
	stalled := base
	stalled.AddStall(0.75)
	if diff := m.Seconds(stalled) - m.Seconds(base); diff != 0.75 {
		t.Fatalf("stall did not add linearly to modeled time: %g", diff)
	}
	mx := (Cost{StallSec: 1}).Max(Cost{StallSec: 2, Flops: 1})
	if mx.StallSec != 2 || mx.Flops != 1 {
		t.Fatalf("Max ignored stall: %+v", mx)
	}
	sub := (Cost{StallSec: 2}).Sub(Cost{StallSec: 0.5})
	if sub.StallSec != 1.5 {
		t.Fatalf("Sub ignored stall: %+v", sub)
	}
	if s := (Cost{Flops: 1, StallSec: 0.5}).String(); s != "F=1 L=0 W=0 stall=0.5s" {
		t.Fatalf("String with stall: %q", s)
	}
}

// TestSecondsNeverBelowStallFloor: the model has no negative term, so a
// cost's modeled time is at least its stall, exactly the stall when
// nothing else was charged, and a fault-free cost prints without one.
func TestSecondsNeverBelowStallFloor(t *testing.T) {
	m := Comet()
	if got := m.Seconds(Cost{StallSec: 2}); got != 2 {
		t.Fatalf("stall-only Seconds = %g, want 2", got)
	}
	if got := m.Seconds(Cost{Flops: 1000, Messages: 3, Words: 40, StallSec: 2}); got <= 2 {
		t.Fatalf("Seconds = %g, want above the 2s stall floor", got)
	}
	if s := (Cost{Flops: 1}).String(); s != "F=1 L=0 W=0" {
		t.Fatalf("fault-free costs must render without a stall: %q", s)
	}
}

func TestCostPlusMaxProperties(t *testing.T) {
	f := func(a, b [3]int32) bool {
		x := Cost{Flops: int64(a[0]), Messages: int64(a[1]), Words: int64(a[2])}
		y := Cost{Flops: int64(b[0]), Messages: int64(b[1]), Words: int64(b[2])}
		p := x
		p.Add(y)
		if p.Flops != x.Flops+y.Flops || p.Words != x.Words+y.Words {
			return false
		}
		m := x.Max(y)
		return m.Flops >= x.Flops && m.Flops >= y.Flops &&
			m.Messages >= x.Messages && m.Messages >= y.Messages &&
			(m.Flops == x.Flops || m.Flops == y.Flops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 512: 9, 513: 10}
	for p, want := range cases {
		if got := Log2Ceil(p); got != want {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", p, got, want)
		}
	}
	if Log2Ceil(0) != 0 || Log2Ceil(-3) != 0 {
		t.Fatal("Log2Ceil of non-positive should be 0")
	}
}

func TestTable1LatencyReduction(t *testing.T) {
	// RC-SFISTA latency = SFISTA latency / k (Table 1).
	base := AlgoParams{N: 128, P: 64, D: 54, MBar: 600, Fill: 0.22}
	sf := SFISTACost(base)
	for _, k := range []int{2, 4, 8, 16} {
		p := base
		p.K = k
		rc := RCSFISTACost(p)
		if rc.Messages != int64(math.Ceil(float64(sf.Messages)/float64(k))) {
			t.Fatalf("k=%d: L = %d, want %d/%d", k, rc.Messages, sf.Messages, k)
		}
		if rc.Words != sf.Words {
			t.Fatalf("k=%d: bandwidth changed: %d vs %d", k, rc.Words, sf.Words)
		}
	}
}

func TestTable1HessianReuseFlops(t *testing.T) {
	base := AlgoParams{N: 100, P: 16, D: 30, MBar: 100, Fill: 0.5, K: 1, S: 1}
	c1 := RCSFISTACost(base)
	base.S = 10
	c10 := RCSFISTACost(base)
	wantExtra := int64(9 * 30 * 30)
	if c10.Flops-c1.Flops != wantExtra {
		t.Fatalf("S flop delta = %d, want %d", c10.Flops-c1.Flops, wantExtra)
	}
	if c10.Messages != c1.Messages || c10.Words != c1.Words {
		t.Fatal("S must not change communication in the closed form")
	}
}

func TestRuntimeMatchesSeconds(t *testing.T) {
	m := Comet()
	p := AlgoParams{N: 200, P: 256, D: 100, MBar: 500, Fill: 0.2, K: 4, S: 2}
	if Runtime(m, p) != m.Seconds(RCSFISTACost(p)) {
		t.Fatal("Runtime != Seconds(RCSFISTACost)")
	}
}

func TestRuntimeMonotoneInK(t *testing.T) {
	// Eq. 24: k only divides the latency term, so runtime is
	// non-increasing in k.
	m := Comet()
	p := AlgoParams{N: 200, P: 256, D: 54, MBar: 5810, Fill: 0.22, S: 1}
	prev := math.Inf(1)
	for k := 1; k <= 64; k *= 2 {
		p.K = k
		rt := Runtime(m, p)
		if rt > prev {
			t.Fatalf("runtime increased at k=%d", k)
		}
		prev = rt
	}
}

func TestPaperBoundAnchors(t *testing.T) {
	// Section 5.3: covtype k_max ~ 2 (Eq. 25); Section 5.3: mnist
	// S < 7 from Eq. 27 with k=1, P=256, N=200.
	m := Comet()
	cov := ParameterBounds(m, AlgoParams{N: 200, P: 256, D: 54, MBar: 5810, Fill: 0.2212, K: 1, S: 1})
	if cov.KLatencyBandwidth < 2 || cov.KLatencyBandwidth > 3 {
		t.Fatalf("covtype k bound = %g, paper says ~2", cov.KLatencyBandwidth)
	}
	mn := ParameterBounds(m, AlgoParams{N: 200, P: 256, D: 780, MBar: 600, Fill: 0.1922, K: 1, S: 1})
	if mn.KSProduct < 6 || mn.KSProduct >= 7 {
		t.Fatalf("mnist kS bound = %g, paper says S < 7", mn.KSProduct)
	}
}

func TestBoundsTradeoff(t *testing.T) {
	// Eq. 27: the k*S budget is fixed, so doubling d^2 halves it.
	m := Comet()
	a := ParameterBounds(m, AlgoParams{N: 100, P: 64, D: 100, MBar: 10, Fill: 0, S: 1})
	b := ParameterBounds(m, AlgoParams{N: 100, P: 64, D: 200, MBar: 10, Fill: 0, S: 1})
	if math.Abs(a.KSProduct/b.KSProduct-4) > 1e-9 {
		t.Fatalf("kS bound ratio = %g, want 4", a.KSProduct/b.KSProduct)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("Speedup wrong")
	}
	if Speedup(10, 0) != 0 {
		t.Fatal("Speedup with zero divisor should be 0")
	}
}

func TestMachineString(t *testing.T) {
	if s := Comet().String(); s == "" {
		t.Fatal("empty String()")
	}
	if s := (Cost{Flops: 1, Messages: 2, Words: 3}).String(); s != "F=1 L=2 W=3" {
		t.Fatalf("Cost.String = %q", s)
	}
}

func TestRecommendPrefersOverlapOnHighLatency(t *testing.T) {
	p := AlgoParams{N: 256, P: 64, D: 54, MBar: 600, Fill: 0.22}
	hi := Recommend(HighLatency(), p)
	lo := Recommend(LowLatency(), p)
	if hi.K < lo.K {
		t.Fatalf("high-latency k=%d < low-latency k=%d", hi.K, lo.K)
	}
	if hi.PredictedSpeedup < 1 || lo.PredictedSpeedup < 1 {
		t.Fatal("recommendation predicts slowdown over baseline")
	}
}

func TestRecommendRespectsIterationBudget(t *testing.T) {
	p := AlgoParams{N: 4, P: 64, D: 54, MBar: 600, Fill: 0.22}
	r := Recommend(Comet(), p)
	if r.K > 4 {
		t.Fatalf("k=%d exceeds N=4", r.K)
	}
}

func TestRecommendReturnsValidConfig(t *testing.T) {
	for _, d := range []int{8, 54, 196, 2000} {
		r := Recommend(Comet(), AlgoParams{N: 200, P: 256, D: d, MBar: 500, Fill: 0.2})
		if r.K < 1 || r.S < 1 {
			t.Fatalf("d=%d: invalid recommendation %+v", d, r)
		}
	}
}
