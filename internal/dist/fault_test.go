package dist

import (
	"math"
	"testing"
)

func TestFaultPlanVerdictDeterministic(t *testing.T) {
	plan := &FaultPlan{Seed: 9, DropProb: 0.3, CorruptProb: 0.2, StragglerProb: 0.4}
	for round := 0; round < 50; round++ {
		for attempt := 0; attempt < 3; attempt++ {
			a := plan.Verdict(round, attempt, 8)
			b := plan.Verdict(round, attempt, 8)
			if a != b {
				t.Fatalf("verdict(%d,%d) not deterministic: %+v vs %+v", round, attempt, a, b)
			}
			if a.Rank < -1 || a.Rank >= 8 {
				t.Fatalf("victim rank out of range: %+v", a)
			}
			if a.StallSec < 0 || math.IsNaN(a.StallSec) {
				t.Fatalf("negative stall: %+v", a)
			}
		}
	}
}

func TestFaultPlanProbabilisticRates(t *testing.T) {
	plan := &FaultPlan{Seed: 123, DropProb: 0.25}
	drops := 0
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		if plan.Verdict(r, 0, 4).Kind == FaultDrop {
			drops++
		}
	}
	got := float64(drops) / rounds
	if got < 0.2 || got > 0.3 {
		t.Fatalf("drop rate %.3f far from 0.25", got)
	}
}

func TestFaultPlanScheduleAndPriority(t *testing.T) {
	plan := &FaultPlan{
		Seed: 1,
		Schedule: []ScheduledFault{
			{Round: 3, Kind: FaultDrop},                             // all attempts
			{Round: 5, Kind: FaultDrop, Attempts: 1},                // transient
			{Round: 7, Kind: FaultStraggler, Rank: 2, DelaySec: 42}, // explicit delay
			{Round: 9, Kind: FaultCorrupt, Rank: -3, Words: 4},
		},
		Crash: &Crash{Rank: 1, Round: 5, Outage: 2, RestartSec: 0.5},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := plan.Verdict(3, 0, 4); v.Kind != FaultDrop || !v.Failed {
		t.Fatalf("round 3 attempt 0: %+v", v)
	}
	if v := plan.Verdict(3, 5, 4); v.Kind != FaultDrop {
		t.Fatalf("Attempts<=0 must hit every attempt: %+v", v)
	}
	// Crash outage covers rounds 5 and 6 and preempts the transient drop.
	if v := plan.Verdict(5, 0, 4); v.Kind != FaultCrash || v.Rank != 1 {
		t.Fatalf("round 5: %+v", v)
	}
	if v := plan.Verdict(6, 2, 4); v.Kind != FaultCrash {
		t.Fatalf("round 6: %+v", v)
	}
	if v := plan.Verdict(7, 0, 4); v.Kind != FaultStraggler || v.Rank != 2 || v.StallSec != 42 {
		t.Fatalf("round 7: %+v", v)
	}
	// Transient drop: only attempt 0 fails.
	if v := plan.Verdict(5, 1, 4); v.Kind == FaultDrop {
		t.Fatalf("transient drop hit attempt 1: %+v", v)
	}
	if v := plan.Verdict(9, 0, 4); v.Kind != FaultCorrupt || v.Words != 4 || v.Rank != 1 {
		t.Fatalf("round 9 (rank folded from -3): %+v", v)
	}
	if v := plan.Verdict(100, 0, 4); v.Kind != FaultNone {
		t.Fatalf("clean round faulted: %+v", v)
	}
}

func TestFaultPlanValidateRejectsBadValues(t *testing.T) {
	bad := []*FaultPlan{
		{DropProb: -0.1},
		{CorruptProb: 1.5},
		{StragglerProb: math.NaN()},
		{StragglerDelaySec: -1},
		{CorruptWords: -2},
		{Schedule: []ScheduledFault{{Round: -1, Kind: FaultDrop}}},
		{Schedule: []ScheduledFault{{Round: 0, Kind: FaultCrash}}},
		{Crash: &Crash{Round: -2}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid plan accepted: %+v", i, p)
		}
	}
	var nilPlan *FaultPlan
	if nilPlan.Validate() != nil {
		t.Fatal("nil plan must validate")
	}
}

// TestFaultPlanValidateRejectsNonFiniteSeconds: every duration of a
// plan is a finite, non-negative number of seconds. An infinite one
// would make a solve's modeled time infinite.
func TestFaultPlanValidateRejectsNonFiniteSeconds(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		plan FaultPlan
	}{
		{"StragglerDelaySec", FaultPlan{StragglerProb: 0.5, StragglerDelaySec: inf}},
		{"Schedule.DelaySec", FaultPlan{Schedule: []ScheduledFault{{Kind: FaultStraggler, DelaySec: inf}}}},
		{"Crash.RestartSec", FaultPlan{Crash: &Crash{RestartSec: inf}}},
		{"TimeoutSec", FaultPlan{TimeoutSec: inf}},
		{"BackoffSec", FaultPlan{BackoffSec: inf}},
		{"TimeoutSec/-Inf", FaultPlan{TimeoutSec: -inf}},
		{"BackoffSec/NaN", FaultPlan{BackoffSec: math.NaN()}},
		{"TimeoutSec/negative", FaultPlan{TimeoutSec: -1e-3}},
	} {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: plan %+v accepted", tc.name, tc.plan)
		}
	}
}

// TestFaultPlanRetryPolicyDefaults pins how the zero values of the
// retry policy resolve: a 1 ms timeout, one retry, a quarter-timeout
// backoff doubling per attempt.
func TestFaultPlanRetryPolicyDefaults(t *testing.T) {
	var p FaultPlan
	if p.Timeout() != DefaultRoundTimeoutSec || p.Retries() != 1 || p.Backoff(1) != DefaultRoundTimeoutSec/4 {
		t.Fatalf("zero plan: timeout %g, retries %d, backoff %g", p.Timeout(), p.Retries(), p.Backoff(1))
	}
	p = FaultPlan{TimeoutSec: 8, MaxRetries: -1}
	if p.Retries() != 0 || p.Backoff(3) != 8 {
		t.Fatalf("set timeout: retries %d, backoff(3) %g", p.Retries(), p.Backoff(3))
	}
	p = FaultPlan{MaxRetries: 3, BackoffSec: 0.5}
	if p.Retries() != 3 || p.Backoff(1) != 0.5 || p.Backoff(2) != 1 {
		t.Fatalf("set backoff: retries %d, backoff %g, %g", p.Retries(), p.Backoff(1), p.Backoff(2))
	}
}

func TestPayloadChecksum(t *testing.T) {
	a := []float64{1, 2, 3, -0.5}
	b := []float64{1, 2, 3, -0.5}
	if PayloadChecksum(a) != PayloadChecksum(b) {
		t.Fatal("checksum not a pure function")
	}
	b[2] = math.Float64frombits(math.Float64bits(b[2]) ^ 1) // single bit flip
	if PayloadChecksum(a) == PayloadChecksum(b) {
		t.Fatal("single bit flip not detected")
	}
	if PayloadChecksum(nil) != PayloadChecksum([]float64{}) {
		t.Fatal("empty payload checksum unstable")
	}
}

func TestCorruptPayloadDeterministic(t *testing.T) {
	mk := func() []float64 {
		b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		(&FaultPlan{Seed: 77}).Corrupt(b, 3, 1, 2)
		return b
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption not deterministic at %d", i)
		}
	}
	clean := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	diff := 0
	for i := range a {
		if a[i] != clean[i] {
			diff++
		}
	}
	if diff == 0 || diff > 2 {
		t.Fatalf("corrupted %d words, want 1..2", diff)
	}
}
