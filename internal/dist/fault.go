package dist

import (
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/rng"
)

// Fault injection for the simulated network. A FaultPlan is a
// deterministic, seeded schedule of communication faults — straggler
// delays, dropped (timed-out) allreduce rounds, corrupted payload
// words, and a rank crash with an outage window — that the stage-C
// exchanger (solvercore.TieredExchanger) injects into the round-indexed
// batched allreduce of RC-SFISTA, the one place that also handles them.
//
// The central design constraint mirrors the paper's zero-communication
// sampling consensus (Sections 5.2/5.5): every rank must agree on the
// outcome of a round without extra coordination, or the SPMD control
// flow diverges and the collective contract deadlocks. The plan is
// therefore evaluated as a pure function of (Seed, round, attempt),
// shared by all ranks the same way the sample index sets are. Costs of
// failed attempts — the tree traffic that was sent before the loss, the
// timeout spent waiting, and the detection vote for corruption — are
// charged into the usual perf.Cost so faults show up in modeled time.

// FaultKind identifies the class of an injected fault.
type FaultKind int

// Fault kinds, in verdict priority order (a crash outage preempts a
// scheduled drop, which preempts corruption, which preempts a mere
// straggler).
const (
	FaultNone FaultKind = iota
	FaultCrash
	FaultDrop
	FaultCorrupt
	FaultStraggler
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// FaultEvent records one injected fault, as observed by a rank. Because
// the plan is shared and deterministic, every rank records the same
// global sequence of events.
type FaultEvent struct {
	// Round is the fallible communication round the fault hit.
	Round int
	// Attempt is the zero-based attempt within the round.
	Attempt int
	// Kind is the fault class.
	Kind FaultKind
	// Rank is the victim rank (straggler, corruption target, crashed
	// rank); -1 when the fault has no specific victim.
	Rank int
	// StallSec is the waiting time this fault charged to every rank.
	StallSec float64
	// Failed reports whether the attempt was lost (drop/corrupt/crash)
	// as opposed to merely delayed (straggler).
	Failed bool
}

// ScheduledFault pins a specific fault to a specific round, on top of
// (and with priority over) the plan's probabilistic knobs.
type ScheduledFault struct {
	// Round is the fallible round index the fault applies to.
	Round int
	// Kind selects the fault class: FaultDrop, FaultCorrupt or
	// FaultStraggler. (Crashes are scheduled via FaultPlan.Crash.)
	Kind FaultKind
	// Rank is the victim for straggler/corrupt faults. Values outside
	// [0, P) are folded into range deterministically.
	Rank int
	// Attempts is the number of leading attempts the fault hits; <= 0
	// means every attempt (a hard failure that exhausts all retries and
	// forces the solver into stale-Hessian degradation).
	Attempts int
	// DelaySec overrides the plan's straggler delay for this event.
	DelaySec float64
	// Words overrides the plan's corrupted word count for this event.
	Words int
}

// Crash schedules a rank failure: the rank becomes unreachable for
// Outage consecutive fallible rounds starting at Round, so those rounds
// cannot complete for anyone. The replacement rank pays RestartSec once
// on top of the per-attempt timeouts.
type Crash struct {
	// Rank is the crashing rank (folded into [0, P)).
	Rank int
	// Round is the first fallible round of the outage.
	Round int
	// Outage is the number of rounds the rank stays down; <= 0 means 1.
	Outage int
	// RestartSec is the one-time recovery stall charged to the crashed
	// rank at the start of the outage.
	RestartSec float64
}

// FaultPlan is a deterministic, seeded fault schedule, plus the retry
// policy a lost round is handled with. The zero value injects nothing:
// a solve under an empty plan is bit-identical (iterates, costs,
// traces) to one without a plan. A plan is read-only once in use.
//
// Probabilistic knobs are evaluated per (round, attempt) from Seed via
// the same splittable stream construction the solvers use for sample
// sets, so all ranks — and repeated runs — see identical faults.
type FaultPlan struct {
	// Seed drives the probabilistic fault draws and the corrupted-word
	// positions.
	Seed uint64

	// DropProb is the per-attempt probability that the allreduce
	// payload is lost in transit (detected by timeout).
	DropProb float64
	// CorruptProb is the per-attempt probability that one rank receives
	// a corrupted payload (detected by checksum + 1-word vote).
	CorruptProb float64
	// StragglerProb is the per-round probability that one rank lags,
	// stalling everyone at the next synchronization.
	StragglerProb float64

	// StragglerDelaySec is the wait charged per straggler event; 0
	// selects DefaultStragglerDelaySec.
	StragglerDelaySec float64
	// CorruptWords is how many payload words a corruption event flips;
	// 0 selects 1.
	CorruptWords int

	// Schedule pins specific faults to specific rounds (checked before
	// the probabilistic knobs).
	Schedule []ScheduledFault
	// Crash optionally schedules a rank failure with an outage window.
	Crash *Crash

	// TimeoutSec is the modeled wait before a rank declares an attempt
	// lost; 0 selects DefaultRoundTimeoutSec.
	TimeoutSec float64
	// MaxRetries is the number of extra attempts after a lost one
	// before the round fails; 0 selects 1, negative disables retries.
	MaxRetries int
	// BackoffSec is the modeled wait before retry attempt 1, doubled
	// per further attempt; 0 selects a quarter of the timeout.
	BackoffSec float64
}

// DefaultStragglerDelaySec is the straggler wait used when the plan
// does not set one: half a millisecond, a few hundred allreduce
// latencies on the Comet model.
const DefaultStragglerDelaySec = 5e-4

// DefaultRoundTimeoutSec is the declared-lost timeout used when the
// plan does not set one: one millisecond, three orders of magnitude
// above the Comet allreduce latency.
const DefaultRoundTimeoutSec = 1e-3

// badSeconds reports whether v is not a usable duration: negative,
// infinite or NaN.
func badSeconds(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }

// Validate checks plan consistency.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"DropProb", p.DropProb}, {"CorruptProb", p.CorruptProb}, {"StragglerProb", p.StragglerProb}} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("dist: FaultPlan.%s = %g out of [0,1]", pr.name, pr.v)
		}
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"StragglerDelaySec", p.StragglerDelaySec}, {"TimeoutSec", p.TimeoutSec}, {"BackoffSec", p.BackoffSec}} {
		if badSeconds(d.v) {
			return fmt.Errorf("dist: FaultPlan.%s = %g not a finite non-negative duration", d.name, d.v)
		}
	}
	if p.CorruptWords < 0 {
		return fmt.Errorf("dist: FaultPlan.CorruptWords = %d negative", p.CorruptWords)
	}
	for i, s := range p.Schedule {
		switch s.Kind {
		case FaultDrop, FaultCorrupt, FaultStraggler:
		default:
			return fmt.Errorf("dist: Schedule[%d] kind %v not schedulable", i, s.Kind)
		}
		if s.Round < 0 {
			return fmt.Errorf("dist: Schedule[%d] round %d negative", i, s.Round)
		}
		if badSeconds(s.DelaySec) {
			return fmt.Errorf("dist: Schedule[%d] delay %g not a finite non-negative duration", i, s.DelaySec)
		}
	}
	if c := p.Crash; c != nil {
		if c.Round < 0 || badSeconds(c.RestartSec) {
			return fmt.Errorf("dist: Crash round/restart invalid (%d, %g)", c.Round, c.RestartSec)
		}
	}
	return nil
}

// empty reports whether the plan can never inject a fault.
func (p *FaultPlan) empty() bool {
	return p == nil || (p.DropProb == 0 && p.CorruptProb == 0 && p.StragglerProb == 0 &&
		len(p.Schedule) == 0 && p.Crash == nil)
}

// Verdict is the plan's decision for one attempt of one round — a pure
// function of (Seed, round, attempt), identical on every rank.
type Verdict struct {
	// Kind is FaultNone when the attempt succeeds cleanly.
	Kind FaultKind
	// Failed reports that the attempt's payload is lost.
	Failed bool
	// Rank is the victim rank, or -1.
	Rank int
	// StallSec is the extra waiting the fault injects (straggler delay;
	// timeouts are charged separately by the exchanger).
	StallSec float64
	// Words is the corrupted word count (corrupt verdicts only).
	Words int
}

// orDefault returns v when it is set (positive), else def: how a
// plan's zero values select their defaults.
func orDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (p *FaultPlan) stragglerDelay() float64 {
	return orDefault(p.StragglerDelaySec, DefaultStragglerDelaySec)
}

func (p *FaultPlan) corruptWords() int { return orDefault(p.CorruptWords, 1) }

// Timeout returns the per-attempt timeout: TimeoutSec, or
// DefaultRoundTimeoutSec when unset.
func (p *FaultPlan) Timeout() float64 { return orDefault(p.TimeoutSec, DefaultRoundTimeoutSec) }

// Retries returns the number of extra attempts a round gets after a
// lost one: MaxRetries, where 0 selects 1 and negative none.
func (p *FaultPlan) Retries() int {
	if p.MaxRetries == 0 {
		return 1
	}
	return max(p.MaxRetries, 0)
}

// Backoff returns the modeled wait before retry attempt a >= 1:
// BackoffSec (a quarter of the timeout when unset), doubled per
// attempt after the first.
func (p *FaultPlan) Backoff(a int) float64 {
	return orDefault(p.BackoffSec, p.Timeout()/4) * float64(int64(1)<<uint(a-1))
}

// foldRank maps an arbitrary rank spec into [0, size).
func foldRank(r, size int) int {
	if size <= 0 {
		return 0
	}
	r %= size
	if r < 0 {
		r += size
	}
	return r
}

// Verdict evaluates the plan for attempt a of round r in a world of
// size ranks. Priority: crash outage, then the scheduled faults in
// order, then the probabilistic draws (drop, corrupt, straggler — at
// most one per attempt).
func (p *FaultPlan) Verdict(round, attempt, size int) Verdict {
	none := Verdict{Kind: FaultNone, Rank: -1}
	if p.empty() {
		return none
	}
	if c := p.Crash; c != nil {
		outage := c.Outage
		if outage <= 0 {
			outage = 1
		}
		if round >= c.Round && round < c.Round+outage {
			return Verdict{Kind: FaultCrash, Failed: true, Rank: foldRank(c.Rank, size)}
		}
	}
	for _, s := range p.Schedule {
		if s.Round != round {
			continue
		}
		if s.Attempts > 0 && attempt >= s.Attempts {
			continue
		}
		switch s.Kind {
		case FaultDrop:
			return Verdict{Kind: FaultDrop, Failed: true, Rank: -1}
		case FaultCorrupt:
			return Verdict{Kind: FaultCorrupt, Failed: true, Rank: foldRank(s.Rank, size),
				Words: orDefault(s.Words, p.corruptWords())}
		case FaultStraggler:
			return Verdict{Kind: FaultStraggler, Rank: foldRank(s.Rank, size),
				StallSec: orDefault(s.DelaySec, p.stragglerDelay())}
		}
	}
	if p.DropProb == 0 && p.CorruptProb == 0 && p.StragglerProb == 0 {
		return none
	}
	// One shared stream per (round, attempt); draws in fixed order so
	// the verdict is reproducible regardless of which knobs are set.
	r := rng.NewSource(p.Seed).Stream(round, attempt)
	uDrop, uCorrupt, uStraggle := r.Float64(), r.Float64(), r.Float64()
	victim := 0
	if size > 0 {
		victim = r.Intn(size)
	}
	switch {
	case uDrop < p.DropProb:
		return Verdict{Kind: FaultDrop, Failed: true, Rank: -1}
	case uCorrupt < p.CorruptProb:
		return Verdict{Kind: FaultCorrupt, Failed: true, Rank: victim, Words: p.corruptWords()}
	case uStraggle < p.StragglerProb && attempt == 0:
		return Verdict{Kind: FaultStraggler, Rank: victim, StallSec: p.stragglerDelay()}
	}
	return none
}

// PayloadChecksum is the FNV-1a hash of the payload bit patterns, the
// integrity check a corrupted batch is detected with.
func PayloadChecksum(buf []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range buf {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Corrupt flips one random bit in each of words distinct-ish positions
// of buf, deterministically in (Seed, round, attempt): the damage a
// corrupt verdict does to its victim's copy of the batch.
func (p *FaultPlan) Corrupt(buf []float64, round, attempt, words int) {
	if len(buf) == 0 {
		return
	}
	r := rng.NewSource(p.Seed^0xbadc0ffee).Stream(round, attempt)
	for i := 0; i < words; i++ {
		pos := r.Intn(len(buf))
		bit := uint(r.Intn(64))
		buf[pos] = math.Float64frombits(math.Float64bits(buf[pos]) ^ (1 << bit))
	}
}
