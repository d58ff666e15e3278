package dist

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
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

// TestFaultyCommZeroPlanIsTransparent pins the acceptance requirement
// that an empty plan is indistinguishable from no wrapper: identical
// results and bit-identical costs.
func TestFaultyCommZeroPlanIsTransparent(t *testing.T) {
	const p = 4
	run := func(wrap bool) ([]float64, []perf.Cost) {
		w := NewWorld(p, unitMachine())
		var out []float64
		err := w.Run(func(c Comm) error {
			buf := []float64{float64(c.Rank()), 2}
			if wrap {
				fc := NewFaultyComm(c, &FaultPlan{}, 0)
				res, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64)
				if !ok {
					return fmt.Errorf("zero plan failed a round")
				}
				fc.EndRound()
				if len(fc.Events()) != 0 {
					return fmt.Errorf("zero plan recorded events")
				}
				if c.Rank() == 0 {
					out = res
				}
				return nil
			}
			res := c.AllreduceShared(buf)
			if c.Rank() == 0 {
				out = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]perf.Cost, p)
		for r := 0; r < p; r++ {
			costs[r] = w.RankCost(r)
		}
		return out, costs
	}
	plainRes, plainCosts := run(false)
	wrapRes, wrapCosts := run(true)
	for i := range plainRes {
		if plainRes[i] != wrapRes[i] {
			t.Fatalf("results differ at %d: %v vs %v", i, plainRes[i], wrapRes[i])
		}
	}
	for r := range plainCosts {
		if plainCosts[r] != wrapCosts[r] {
			t.Fatalf("rank %d cost differs: %v vs %v", r, plainCosts[r], wrapCosts[r])
		}
	}
}

func TestFaultyCommDropChargesAndFailsEverywhere(t *testing.T) {
	const p = 4
	plan := &FaultPlan{Schedule: []ScheduledFault{{Round: 0, Kind: FaultDrop}}}
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		fc := NewFaultyComm(c, plan, 2e-3)
		buf := make([]float64, 10)
		res, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64)
		if ok || res != nil {
			return fmt.Errorf("rank %d: dropped attempt succeeded", c.Rank())
		}
		// Second attempt of the same round: schedule says all attempts.
		if _, ok := fc.AttemptAllreduceSharedTier(buf, 1, TierF64); ok {
			return fmt.Errorf("rank %d: retry of hard drop succeeded", c.Rank())
		}
		fc.EndRound()
		// Next round is clean.
		res, ok = fc.AttemptAllreduceSharedTier(buf, 0, TierF64)
		if !ok || res == nil {
			return fmt.Errorf("rank %d: clean round failed", c.Rank())
		}
		fc.EndRound()
		if got := len(fc.Events()); got != 2 {
			return fmt.Errorf("rank %d: %d events, want 2", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each failed attempt charges the full reduction-tree traffic plus
	// the timeout stall; the clean round charges one more tree.
	lg := int64(perf.Log2Ceil(p))
	want := perf.Cost{Messages: 3 * lg, Words: 3 * lg * 10, Flops: 3 * lg * 10, StallSec: 2 * 2e-3}
	for r := 0; r < p; r++ {
		if got := w.RankCost(r); got != want {
			t.Fatalf("rank %d cost = %v, want %v", r, got, want)
		}
	}
}

func TestFaultyCommCorruptDetectedByAllRanks(t *testing.T) {
	const p = 4
	plan := &FaultPlan{Seed: 5, Schedule: []ScheduledFault{
		{Round: 0, Kind: FaultCorrupt, Rank: 2, Attempts: 1, Words: 3},
	}}
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		fc := NewFaultyComm(c, plan, 0)
		buf := []float64{1, 2, 3, 4}
		if _, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64); ok {
			return fmt.Errorf("rank %d: corrupted attempt not failed", c.Rank())
		}
		// The retry goes through and returns the true sum.
		res, ok := fc.AttemptAllreduceSharedTier(buf, 1, TierF64)
		if !ok {
			return fmt.Errorf("rank %d: retry failed", c.Rank())
		}
		if res[0] != float64(p) || res[3] != float64(4*p) {
			return fmt.Errorf("rank %d: wrong retry payload %v", c.Rank(), res)
		}
		fc.EndRound()
		evs := fc.Events()
		if len(evs) != 1 || evs[0].Kind != FaultCorrupt || evs[0].Rank != 2 || !evs[0].Failed {
			return fmt.Errorf("rank %d: events %+v", c.Rank(), evs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultyCommCrashOutageAndRestartCost(t *testing.T) {
	const p = 4
	plan := &FaultPlan{Crash: &Crash{Rank: 1, Round: 0, Outage: 2, RestartSec: 0.25}}
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		fc := NewFaultyComm(c, plan, 1e-3)
		buf := []float64{1}
		for round := 0; round < 3; round++ {
			res, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64)
			fc.EndRound()
			wantOK := round >= 2
			if ok != wantOK {
				return fmt.Errorf("rank %d round %d: ok=%v", c.Rank(), round, ok)
			}
			if ok && res[0] != float64(p) {
				return fmt.Errorf("rank %d: recovered round sum %v", c.Rank(), res)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The crashed rank pays the restart once on top of the two timeouts.
	base := w.RankCost(0).StallSec
	if base != 2*1e-3 {
		t.Fatalf("survivor stall = %g, want 2ms", base)
	}
	if got := w.RankCost(1).StallSec; got != base+0.25 {
		t.Fatalf("crashed rank stall = %g, want %g", got, base+0.25)
	}
}

func TestFaultyCommStraggler(t *testing.T) {
	const p = 2
	plan := &FaultPlan{Schedule: []ScheduledFault{
		{Round: 1, Kind: FaultStraggler, Rank: 0, DelaySec: 0.125},
	}}
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		fc := NewFaultyComm(c, plan, 0)
		buf := []float64{1, 1}
		for round := 0; round < 2; round++ {
			res, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64)
			fc.EndRound()
			if !ok || res[0] != float64(p) {
				return fmt.Errorf("rank %d round %d: straggler must not lose data", c.Rank(), round)
			}
		}
		evs := fc.Events()
		if len(evs) != 1 || evs[0].Kind != FaultStraggler || evs[0].Failed {
			return fmt.Errorf("rank %d: events %+v", c.Rank(), evs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if got := w.RankCost(r).StallSec; got != 0.125 {
			t.Fatalf("rank %d stall = %g, want 0.125 (everyone waits)", r, got)
		}
	}
}

func TestFaultyCommOnSelfComm(t *testing.T) {
	// A single-rank world: drops still fail (the solver's degradation
	// path is exercisable sequentially), clean rounds still no-op.
	fc := NewFaultyComm(NewSelfComm(unitMachine()),
		&FaultPlan{Schedule: []ScheduledFault{{Round: 0, Kind: FaultDrop, Attempts: 1}}}, 1e-3)
	buf := []float64{3}
	if _, ok := fc.AttemptAllreduceSharedTier(buf, 0, TierF64); ok {
		t.Fatal("scheduled drop succeeded on SelfComm")
	}
	res, ok := fc.AttemptAllreduceSharedTier(buf, 1, TierF64)
	if !ok || res[0] != 3 {
		t.Fatalf("retry on SelfComm: ok=%v res=%v", ok, res)
	}
	fc.EndRound()
	if fc.Cost().StallSec != 1e-3 {
		t.Fatalf("timeout not charged: %v", fc.Cost())
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
		corruptPayload(b, 77, 3, 1, 2)
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
