package solvercore

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// faultLeg is one place a fallible-round test runs: a backend ("chan",
// "tcp", or "self" for a lone dist.SelfComm), a rank count, and whether
// each round is exchanged blocking or posted and resolved.
type faultLeg struct {
	backend string
	procs   int
	posted  bool
}

func (l faultLeg) String() string {
	return fmt.Sprintf("%s/p%d/posted=%t", l.backend, l.procs, l.posted)
}

// faultLegs lists chan and tcp at P ∈ {1, 4} and a SelfComm, each
// blocking and posted.
func faultLegs() []faultLeg {
	var legs []faultLeg
	for _, posted := range []bool{false, true} {
		for _, backend := range []string{"chan", "tcp"} {
			for _, procs := range []int{1, 4} {
				legs = append(legs, faultLeg{backend, procs, posted})
			}
		}
		legs = append(legs, faultLeg{"self", 1, posted})
	}
	return legs
}

// rankRounds is what one rank saw over a sequence of stage-C rounds.
type rankRounds struct {
	shared [][]float64 // per round, a copy of the returned batch; nil on a skip
	votes  []Vote
	cost   perf.Cost
	rec    *Recorder
}

// runRounds gives every rank of a fresh world on leg one
// TieredExchanger under plan at tier, exchanges rounds batches — rank
// k's payload in round r is payload(k, r) — and returns each rank's
// view.
func runRounds(t *testing.T, leg faultLeg, plan *dist.FaultPlan, tier dist.Tier, rounds int,
	payload func(rank, round int) []float64) []rankRounds {
	t.Helper()
	out := make([]rankRounds, leg.procs)
	body := func(c dist.Comm) error {
		rec := NewRecorder("faults", c.Rank(), c.Cost(), c.Machine())
		ex := &TieredExchanger{C: c, TierOf: func(int) dist.Tier { return tier }, Faults: plan, Rec: rec}
		o := &out[c.Rank()]
		for r := 0; r < rounds; r++ {
			local := payload(c.Rank(), r)
			var shared []float64
			var vote Vote
			if leg.posted {
				shared, vote = ex.Resolve(ex.Post(local, false))
			} else {
				shared, vote = ex.Exchange(local, false)
			}
			o.shared = append(o.shared, slices.Clone(shared))
			o.votes = append(o.votes, vote)
		}
		o.cost, o.rec = *c.Cost(), rec
		return nil
	}
	if leg.backend == "self" {
		if err := body(dist.NewSelfComm(perf.Comet())); err != nil {
			t.Fatal(err)
		}
		return out
	}
	w, err := dist.NewWorldOn(leg.backend, leg.procs, perf.Comet())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumPayload is Σ_k payload(k, round) over procs ranks.
func sumPayload(procs, round int, payload func(rank, round int) []float64) []float64 {
	sum := make([]float64, len(payload(0, round)))
	for k := 0; k < procs; k++ {
		for i, v := range payload(k, round) {
			sum[i] += v
		}
	}
	return sum
}

// treeCost is one rank's charge for attempts f64 tree allreduces of n
// values on procs ranks.
func treeCost(procs, n, attempts int) perf.Cost {
	c := dist.AllreduceCost(procs, n)
	return perf.Cost{Flops: int64(attempts) * c.Flops, Messages: int64(attempts) * c.Messages, Words: int64(attempts) * c.Words}
}

// eventKinds lists the kinds of a rank-0 trace's events in order.
func eventKinds(evs []trace.Event) []string {
	var kinds []string
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	return kinds
}

func rankPayload(rank, round int) []float64 {
	return []float64{float64(rank), float64(round), 1, -1, 0.5, 2}
}

// TestTieredFaultsZeroPlanIsTransparent: an empty plan is
// indistinguishable from none — the same batches, votes and costs on
// every rank, no fault statistics, no events — at f64 and i8.
func TestTieredFaultsZeroPlanIsTransparent(t *testing.T) {
	for _, leg := range faultLegs() {
		for _, tier := range []dist.Tier{dist.TierF64, dist.TierI8} {
			name := fmt.Sprintf("%v/%v", leg, tier)
			want := runRounds(t, leg, nil, tier, 3, rankPayload)
			got := runRounds(t, leg, &dist.FaultPlan{}, tier, 3, rankPayload)
			for k := range want {
				requireSameRounds(t, fmt.Sprintf("%s rank %d", name, k), want[k], got[k])
				if got[k].rec.Faults != (FaultStats{}) || len(got[k].rec.Series.Events) != 0 {
					t.Fatalf("%s rank %d: empty plan recorded %+v, %d events", name, k, got[k].rec.Faults, len(got[k].rec.Series.Events))
				}
			}
		}
	}
}

// requireSameRounds fails unless two ranks' views agree bit for bit on
// batches, votes, costs, fault statistics and events.
func requireSameRounds(t *testing.T, name string, a, b rankRounds) {
	t.Helper()
	if !slices.Equal(a.votes, b.votes) || a.cost != b.cost || a.rec.Faults != b.rec.Faults {
		t.Fatalf("%s: votes %v vs %v, cost %v vs %v, faults %+v vs %+v",
			name, a.votes, b.votes, a.cost, b.cost, a.rec.Faults, b.rec.Faults)
	}
	for r := range a.shared {
		if len(a.shared[r]) != len(b.shared[r]) || (a.shared[r] == nil) != (b.shared[r] == nil) {
			t.Fatalf("%s round %d: %v vs %v", name, r, a.shared[r], b.shared[r])
		}
		for i := range a.shared[r] {
			if math.Float64bits(a.shared[r][i]) != math.Float64bits(b.shared[r][i]) {
				t.Fatalf("%s round %d value %d: %v vs %v", name, r, i, a.shared[r][i], b.shared[r][i])
			}
		}
	}
	if !slices.EqualFunc(a.rec.Series.Events, b.rec.Series.Events, func(x, y trace.Event) bool { return x == y }) {
		t.Fatalf("%s: events %+v vs %+v", name, a.rec.Series.Events, b.rec.Series.Events)
	}
}

// TestTieredFaultsDropFailsEverywhere: a round dropped on every attempt
// fails on every rank — skipped, as no batch has arrived yet — after
// charging each attempt's tree traffic and timeout and the backoff
// between them; the next round is clean.
func TestTieredFaultsDropFailsEverywhere(t *testing.T) {
	plan := &dist.FaultPlan{TimeoutSec: 2e-3, Schedule: []dist.ScheduledFault{{Round: 0, Kind: dist.FaultDrop}}}
	for _, leg := range faultLegs() {
		out := runRounds(t, leg, plan, dist.TierF64, 2, rankPayload)
		want := treeCost(leg.procs, 6, 3)
		want.StallSec = 2e-3 + plan.Backoff(1) + 2e-3
		for k, o := range out {
			name := fmt.Sprintf("%v rank %d", leg, k)
			if o.shared[0] != nil || o.votes[0] != VoteMissing {
				t.Fatalf("%s: dropped round delivered %v (vote %d)", name, o.shared[0], o.votes[0])
			}
			if !slices.Equal(o.shared[1], sumPayload(leg.procs, 1, rankPayload)) || o.votes[1] != VoteContinue {
				t.Fatalf("%s: clean round %v (vote %d)", name, o.shared[1], o.votes[1])
			}
			if f := o.rec.Faults; f != (FaultStats{Retries: 1, FailedRounds: 1, SkippedRounds: 1}) {
				t.Fatalf("%s: faults %+v", name, f)
			}
			if o.cost != want {
				t.Fatalf("%s: cost %v, want %v", name, o.cost, want)
			}
		}
		if kinds := eventKinds(out[0].rec.Series.Events); !slices.Equal(kinds, []string{"drop", "drop", "skip"}) {
			t.Fatalf("%v: events %v", leg, kinds)
		}
	}
}

// TestTieredFaultsOnSelfComm: a lone SelfComm runs the same fallible
// path — a transient drop still fails its attempt, charges the timeout
// and the backoff, and the retry delivers the rank's own batch.
func TestTieredFaultsOnSelfComm(t *testing.T) {
	plan := &dist.FaultPlan{TimeoutSec: 1e-3, Schedule: []dist.ScheduledFault{{Round: 0, Kind: dist.FaultDrop, Attempts: 1}}}
	for _, posted := range []bool{false, true} {
		leg := faultLeg{"self", 1, posted}
		o := runRounds(t, leg, plan, dist.TierF64, 1, rankPayload)[0]
		if !slices.Equal(o.shared[0], rankPayload(0, 0)) || o.votes[0] != VoteContinue {
			t.Fatalf("%v: retried round %v (vote %d)", leg, o.shared[0], o.votes[0])
		}
		if f := o.rec.Faults; f != (FaultStats{Retries: 1}) {
			t.Fatalf("%v: faults %+v", leg, f)
		}
		want := treeCost(1, 6, 2)
		want.StallSec = 1e-3 + plan.Backoff(1)
		if o.cost != want {
			t.Fatalf("%v: cost %v, want %v", leg, o.cost, want)
		}
		if kinds := eventKinds(o.rec.Series.Events); !slices.Equal(kinds, []string{"drop", "retry-ok"}) {
			t.Fatalf("%v: events %v", leg, kinds)
		}
	}
}

// TestTieredFaultsCorruptDetectedByAllRanks: one rank's corrupted copy
// fails the attempt on every rank through the one-word vote; the retry
// delivers the true sum.
func TestTieredFaultsCorruptDetectedByAllRanks(t *testing.T) {
	plan := &dist.FaultPlan{Seed: 5, Schedule: []dist.ScheduledFault{
		{Round: 0, Kind: dist.FaultCorrupt, Rank: 2, Attempts: 1, Words: 3},
	}}
	for _, leg := range faultLegs() {
		out := runRounds(t, leg, plan, dist.TierF64, 1, rankPayload)
		want := treeCost(leg.procs, 6, 2)
		want.Add(dist.AllreduceCost(leg.procs, 1))
		want.StallSec = plan.Backoff(1)
		for k, o := range out {
			name := fmt.Sprintf("%v rank %d", leg, k)
			if !slices.Equal(o.shared[0], sumPayload(leg.procs, 0, rankPayload)) || o.votes[0] != VoteContinue {
				t.Fatalf("%s: retried round %v (vote %d)", name, o.shared[0], o.votes[0])
			}
			if f := o.rec.Faults; f != (FaultStats{Retries: 1}) {
				t.Fatalf("%s: faults %+v", name, f)
			}
			if o.cost != want {
				t.Fatalf("%s: cost %v, want %v", name, o.cost, want)
			}
		}
		evs := out[0].rec.Series.Events
		if kinds := eventKinds(evs); !slices.Equal(kinds, []string{"corrupt", "retry-ok"}) || evs[0].Rank != 2%leg.procs {
			t.Fatalf("%v: events %+v", leg, evs)
		}
	}
}

// TestTieredFaultsCrashOutageAndRestart: a crash loses every round of
// its outage on every rank, each charging the timeout; the crashed rank
// alone pays the restart, once.
func TestTieredFaultsCrashOutageAndRestart(t *testing.T) {
	plan := &dist.FaultPlan{TimeoutSec: 1e-3, MaxRetries: -1,
		Crash: &dist.Crash{Rank: 1, Round: 0, Outage: 2, RestartSec: 0.25}}
	for _, leg := range faultLegs() {
		out := runRounds(t, leg, plan, dist.TierF64, 3, rankPayload)
		victim := 1 % leg.procs
		for k, o := range out {
			name := fmt.Sprintf("%v rank %d", leg, k)
			if o.shared[0] != nil || o.shared[1] != nil || !slices.Equal(o.shared[2], sumPayload(leg.procs, 2, rankPayload)) {
				t.Fatalf("%s: rounds %v", name, o.shared)
			}
			want := treeCost(leg.procs, 6, 3)
			want.StallSec = 1e-3 + 1e-3
			if k == victim {
				want.StallSec = 1e-3 + 0.25 + 1e-3
			}
			if o.cost != want {
				t.Fatalf("%s: cost %v, want %v", name, o.cost, want)
			}
		}
		evs := out[0].rec.Series.Events
		if kinds := eventKinds(evs); !slices.Equal(kinds, []string{"crash", "skip", "crash", "skip"}) || evs[0].Rank != victim {
			t.Fatalf("%v: events %+v", leg, evs)
		}
	}
}

// TestTieredFaultsStraggler: a straggler loses no data, and every rank
// waits its delay.
func TestTieredFaultsStraggler(t *testing.T) {
	plan := &dist.FaultPlan{Schedule: []dist.ScheduledFault{
		{Round: 1, Kind: dist.FaultStraggler, Rank: 0, DelaySec: 0.125},
	}}
	for _, leg := range faultLegs() {
		out := runRounds(t, leg, plan, dist.TierF64, 2, rankPayload)
		for k, o := range out {
			name := fmt.Sprintf("%v rank %d", leg, k)
			for r := range o.shared {
				if !slices.Equal(o.shared[r], sumPayload(leg.procs, r, rankPayload)) {
					t.Fatalf("%s round %d: straggler lost data: %v", name, r, o.shared[r])
				}
			}
			if o.cost.StallSec != 0.125 || o.rec.Faults != (FaultStats{}) {
				t.Fatalf("%s: stall %g, faults %+v", name, o.cost.StallSec, o.rec.Faults)
			}
		}
		evs := out[0].rec.Series.Events
		if len(evs) != 1 || evs[0].Kind != "straggler" || evs[0].Round != 1 || evs[0].StallSec != 0.125 {
			t.Fatalf("%v: events %+v", leg, evs)
		}
	}
}

// mixedPlan hits one round each with a transient drop, a straggler and
// a corruption, then drops a round outright, which degrades to the
// last good batch.
var mixedPlan = &dist.FaultPlan{
	Seed:       5,
	MaxRetries: 2,
	Schedule: []dist.ScheduledFault{
		{Round: 1, Kind: dist.FaultDrop, Attempts: 1},
		{Round: 2, Kind: dist.FaultStraggler, Rank: 1, DelaySec: 2.5},
		{Round: 3, Kind: dist.FaultCorrupt, Rank: 2, Words: 3, Attempts: 2},
		{Round: 4, Kind: dist.FaultDrop},
	},
}

// TestTieredFaultsPostedMatchesBlocking: for every verdict kind a
// posted round resolves to the same batch, vote, cost, statistics and
// event log as a blocking one.
func TestTieredFaultsPostedMatchesBlocking(t *testing.T) {
	for _, leg := range faultLegs() {
		if leg.posted {
			continue
		}
		blocking := runRounds(t, leg, mixedPlan, dist.TierF64, 6, rankPayload)
		posted := leg
		posted.posted = true
		pipelined := runRounds(t, posted, mixedPlan, dist.TierF64, 6, rankPayload)
		for k := range blocking {
			requireSameRounds(t, fmt.Sprintf("%v rank %d", leg, k), blocking[k], pipelined[k])
		}
		if f := blocking[0].rec.Faults; f != (FaultStats{Retries: 5, FailedRounds: 1, DegradedRounds: 1}) {
			t.Fatalf("%v: faults %+v", leg, f)
		}
		if got := blocking[0].shared[4]; !slices.Equal(got, blocking[0].shared[3]) {
			t.Fatalf("%v: degraded round returned %v, not the last good batch", leg, got)
		}
	}
}

// TestTieredFaultsI8LostAttemptFootprint: under i8 a lost attempt
// charges the tree traffic of the compressed wire, not of f64 words,
// and the retried round delivers the same batch a clean i8 round does.
func TestTieredFaultsI8LostAttemptFootprint(t *testing.T) {
	const n = 128
	payload := func(rank, round int) []float64 {
		local := make([]float64, n)
		for i := range local {
			local[i] = float64(i%13) * float64(rank+1)
		}
		return local
	}
	plan := &dist.FaultPlan{Seed: 11, Schedule: []dist.ScheduledFault{{Round: 0, Kind: dist.FaultDrop, Attempts: 1}}}
	for _, leg := range faultLegs() {
		clean := runRounds(t, leg, nil, dist.TierI8, 1, payload)
		lost := runRounds(t, leg, plan, dist.TierI8, 1, payload)
		attempt := dist.AllreduceCostTier(leg.procs, n, dist.TierI8)
		for k := range clean {
			name := fmt.Sprintf("%v rank %d", leg, k)
			if clean[k].cost != attempt {
				t.Fatalf("%s: clean i8 round charged %v, want %v", name, clean[k].cost, attempt)
			}
			want := attempt
			want.Add(attempt)
			want.StallSec = plan.Timeout() + plan.Backoff(1)
			if lost[k].cost != want {
				t.Fatalf("%s: lost i8 attempt and retry charged %v, want %v", name, lost[k].cost, want)
			}
			if !slices.Equal(lost[k].shared[0], clean[k].shared[0]) {
				t.Fatalf("%s: retried i8 round %v, clean %v", name, lost[k].shared[0], clean[k].shared[0])
			}
		}
	}
}

// TestTieredFaultsAcrossBackends: the fault machine is transport
// agnostic — the same plan gives the same batches, votes, costs,
// statistics and events on chan and over tcp.
func TestTieredFaultsAcrossBackends(t *testing.T) {
	plan := *mixedPlan
	plan.Crash = &dist.Crash{Rank: 3, Round: 5, RestartSec: 0.5}
	postings := []bool{false, true}
	runs := map[string][][]rankRounds{}
	for _, backend := range []string{"chan", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			for _, posted := range postings {
				out := runRounds(t, faultLeg{backend, 4, posted}, &plan, dist.TierF64, 7, rankPayload)
				if out[3].cost.StallSec <= out[0].cost.StallSec {
					t.Fatalf("posted=%t: the crashed rank paid no restart", posted)
				}
				runs[backend] = append(runs[backend], out)
			}
		})
	}
	ref, got := runs["chan"], runs["tcp"]
	if len(ref) != len(postings) || len(got) != len(postings) {
		t.Fatal("a backend run did not complete")
	}
	for i, posted := range postings {
		for k := range ref[i] {
			requireSameRounds(t, fmt.Sprintf("posted=%t rank %d chan vs tcp", posted, k), ref[i][k], got[i][k])
		}
	}
}
