package dist

import (
	"math"
	"testing"
)

// FuzzFaultPlan hammers the zero-communication fault consensus: for any
// plan parameters, Verdict must be a total, pure function — identical on
// re-evaluation (that is what keeps SPMD ranks agreeing without
// messages), with the victim rank in range and non-negative stall —
// and every delay a plan accepts stays a finite stall.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), 0.1, 0.1, 0.1, 3, 0, 8, 0.0)
	f.Add(uint64(42), 0.9, 0.0, 0.5, 0, 2, 2, 2.5)
	f.Add(uint64(0), 0.0, 1.0, 0.0, 17, 1, 1, math.Inf(1))
	f.Add(uint64(7), 0.33, 0.33, 0.33, 5, 3, 16, 1e300)
	f.Fuzz(func(t *testing.T, seed uint64, dropP, corruptP, straggleP float64, round, attempt, size int, delay float64) {
		clamp := func(p float64) float64 {
			if math.IsNaN(p) || p < 0 {
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		plan := &FaultPlan{
			Seed:          seed,
			DropProb:      clamp(dropP),
			CorruptProb:   clamp(corruptP),
			StragglerProb: clamp(straggleP),
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("clamped plan rejected: %v", err)
		}
		if round < 0 {
			round = -round
		}
		if attempt < 0 {
			attempt = -attempt
		}
		if size < 1 {
			size = 1
		}
		size = size%1024 + 1

		v := plan.Verdict(round, attempt, size)
		for i := 0; i < 3; i++ {
			if again := plan.Verdict(round, attempt, size); again != v {
				t.Fatalf("verdict unstable: %+v vs %+v", v, again)
			}
		}
		if v.StallSec < 0 || math.IsNaN(v.StallSec) {
			t.Fatalf("bad stall: %+v", v)
		}
		if v.Kind != FaultNone && (v.Rank < -1 || v.Rank >= size) {
			t.Fatalf("victim out of range [0,%d): %+v", size, v)
		}
		if v.Words < 0 {
			t.Fatalf("negative corrupt words: %+v", v)
		}
		switch v.Kind {
		case FaultNone, FaultStraggler:
			if v.Failed {
				t.Fatalf("%v marked failed: %+v", v.Kind, v)
			}
		case FaultDrop, FaultCrash, FaultCorrupt:
			if !v.Failed {
				t.Fatalf("%v not marked failed: %+v", v.Kind, v)
			}
		}

		// The same plan with every duration set to delay, and a
		// straggler scheduled on this round: if it validates, every
		// stall it can charge is finite.
		timed := *plan
		timed.StragglerDelaySec, timed.TimeoutSec, timed.BackoffSec = delay, delay, delay
		timed.Schedule = []ScheduledFault{{Round: round, Kind: FaultStraggler, Attempts: 1, DelaySec: delay}}
		timed.Crash = &Crash{Round: round + 1, RestartSec: delay}
		if timed.Validate() != nil {
			return
		}
		probabilistic := timed
		probabilistic.Schedule, probabilistic.Crash = nil, nil
		for _, sec := range []float64{
			timed.Verdict(round, 0, size).StallSec,
			probabilistic.Verdict(round, 0, size).StallSec,
			timed.Timeout(), timed.Backoff(1), timed.Crash.RestartSec,
		} {
			if sec < 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
				t.Fatalf("accepted plan %+v stalls %g", timed, sec)
			}
		}
	})
}
