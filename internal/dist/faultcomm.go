package dist

import (
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/rng"
)

// This file holds the communicator side of fault injection: FaultyComm
// wraps a Comm and applies FaultPlan verdicts (fault.go) to the
// round-indexed fallible collective, blocking and nonblocking alike.

// PayloadChecksum is the FNV-1a hash of the payload bit patterns, the
// integrity check the corruption path verifies received batches with.
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

// FaultyComm wraps a Comm and injects the plan's faults into the
// round-indexed fallible collective (AttemptAllreduceSharedTier). All other
// operations pass through to the wrapped communicator unchanged, so
// instrumentation collectives (objective evaluation, variance-reduction
// snapshots) stay reliable — the plan models data-plane loss on the
// dominant Hessian-batch transfer, which is exactly where the solver
// can degrade gracefully via Hessian reuse.
type FaultyComm struct {
	Comm
	tierForwarders
	plan       *FaultPlan
	timeoutSec float64
	round      int
	events     []FaultEvent
}

// DefaultRoundTimeoutSec is the declared-lost timeout used when the
// caller passes 0: one millisecond, three orders of magnitude above the
// Comet allreduce latency.
const DefaultRoundTimeoutSec = 1e-3

// NewFaultyComm wraps inner with the plan. timeoutSec is the modeled
// waiting charged per failed attempt before it is declared lost; 0
// selects DefaultRoundTimeoutSec. A nil plan is valid and injects
// nothing.
func NewFaultyComm(inner Comm, plan *FaultPlan, timeoutSec float64) *FaultyComm {
	if timeoutSec <= 0 {
		timeoutSec = DefaultRoundTimeoutSec
	}
	f := &FaultyComm{Comm: inner, plan: plan, timeoutSec: timeoutSec}
	f.to = f
	return f
}

// FaultyComm embeds the Comm interface, so the tiered collectives of
// the wrapped communicator are not promoted automatically; these
// reliable passthroughs (and the forwarders over them) let the solver
// compose payload compression with fault injection. Fault verdicts
// apply only through the attempt methods below, mirroring how the
// promoted AllreduceShared relates to AttemptAllreduceSharedTier.
func (f *FaultyComm) allreduceSharedTier(local []float64, t Tier) []float64 {
	return AllreduceSharedTier(f.Comm, local, t)
}

func (f *FaultyComm) iallreduceSharedTier(local []float64, t Tier) *Request {
	return IAllreduceSharedTier(f.Comm, local, t)
}

// SupportsTier reports whether the wrapped communicator can run tiered
// collectives at tier t. Because the forwarders exist unconditionally,
// a bare type assertion on a FaultyComm cannot tell whether the
// wrapped transport is capable; dist.SupportsTier therefore consults
// this method, which forwards the check to the inner Comm.
func (f *FaultyComm) SupportsTier(t Tier) error {
	return SupportsTier(f.Comm, t)
}

var _ Comm = (*FaultyComm)(nil)

// Round returns the index of the current fallible round.
func (f *FaultyComm) Round() int { return f.round }

// TimeoutSec returns the per-attempt timeout.
func (f *FaultyComm) TimeoutSec() float64 { return f.timeoutSec }

// Events returns the fault events recorded so far (this rank's view;
// identical across ranks because the plan is shared). The slice is the
// live log — callers must not mutate it.
func (f *FaultyComm) Events() []FaultEvent { return f.events }

// EndRound closes the current fallible round and advances the counter.
// Every rank must call it exactly once per round, after its attempts.
func (f *FaultyComm) EndRound() { f.round++ }

// AttemptAllreduceSharedTier executes attempt number attempt of the
// current fallible round over the tier's wire: post, then Wait. On a
// clean or merely-straggling attempt it returns (result, true); on a
// lost attempt (drop, corruption, crash outage) it charges the realistic
// failure cost — the tree traffic already sent, at the tier's compressed
// footprint (a dropped int8 round wasted int8 words, not float64 words),
// the timeout spent waiting, the corruption-detection vote — and returns
// (nil, false) on every rank, so the SPMD retry loops stay in lockstep
// without any extra coordination.
func (f *FaultyComm) AttemptAllreduceSharedTier(local []float64, attempt int, tier Tier) ([]float64, bool) {
	return f.IAttemptAllreduceSharedTier(local, attempt, tier).Wait()
}

// resolve applies the attempt's verdict to its completed (or
// never-started) collective: it charges the failure costs, records the
// fault event and returns the attempt outcome. res is the collective's
// result for verdicts that complete it, nil for drop/crash (where no
// rank enters the collective); lost attempts charge the already-sent
// tree traffic at the footprint of the tier the attempt would have run
// at.
func (p *PendingAttempt) resolve(res []float64) ([]float64, bool) {
	f, v, round, attempt := p.f, p.verdict, p.round, p.attempt
	cost := f.Cost()
	switch v.Kind {
	case FaultNone:
		return res, true

	case FaultStraggler:
		// The collective completes, but everyone waits on the lagging
		// rank at the synchronization point.
		cost.AddStall(v.StallSec)
		f.record(FaultEvent{Round: round, Attempt: attempt, Kind: FaultStraggler,
			Rank: v.Rank, StallSec: v.StallSec})
		return res, true

	case FaultDrop, FaultCrash:
		// The payload is lost in transit (or a peer is down): ranks
		// still paid the reduction-tree traffic, then wait out the
		// timeout before declaring the attempt dead. No rank receives
		// data, and — because the verdict is shared — no rank enters
		// the underlying collective, so nobody deadlocks.
		chargeAllreduceTier(cost, f.Size(), p.words, p.tier)
		cost.AddStall(f.timeoutSec)
		stall := f.timeoutSec
		if v.Kind == FaultCrash && f.plan.Crash != nil &&
			round == f.plan.Crash.Round && attempt == 0 && f.Rank() == v.Rank {
			// One-time restart cost for the replacement rank.
			cost.AddStall(f.plan.Crash.RestartSec)
			stall += f.plan.Crash.RestartSec
		}
		f.record(FaultEvent{Round: round, Attempt: attempt, Kind: v.Kind,
			Rank: v.Rank, StallSec: stall, Failed: true})
		return nil, false

	case FaultCorrupt:
		// The collective completes but the victim receives flipped
		// bits. Detection is checksum + a one-word agreement vote (a
		// real collective, charged at its real cost), after which every
		// rank discards the round.
		sum := PayloadChecksum(res)
		payload := res
		var bad float64
		if f.Rank() == v.Rank && len(res) > 0 {
			corrupted := make([]float64, len(res))
			copy(corrupted, res)
			corruptPayload(corrupted, f.plan.Seed, round, attempt, v.Words)
			if PayloadChecksum(corrupted) != sum {
				bad = 1
			}
			payload = corrupted
		}
		vote := [1]float64{bad}
		f.Comm.Allreduce(vote[:], OpMax)
		if vote[0] != 0 {
			f.record(FaultEvent{Round: round, Attempt: attempt, Kind: FaultCorrupt,
				Rank: v.Rank, Failed: true})
			return nil, false
		}
		// Checksum collision (astronomically rare): the corruption goes
		// undetected and propagates, exactly as a real silent error
		// would. Control flow stays in lockstep — the vote is shared.
		return payload, true
	}
	panic(fmt.Sprintf("dist: unhandled fault verdict %v", v.Kind))
}

// PendingAttempt is an in-flight fallible allreduce attempt posted with
// IAttemptAllreduceSharedTier. The fault verdict — a pure function of
// (seed, round, attempt), identical on every rank — is applied when
// Wait is called, so pipelined and blocking rounds observe the same
// faults, costs and events.
type PendingAttempt struct {
	f       *FaultyComm
	verdict Verdict
	round   int
	attempt int
	words   int
	tier    Tier
	req     *Request // nil when the verdict loses the payload in transit
	done    bool
	res     []float64
	ok      bool
}

// IAttemptAllreduceSharedTier posts attempt number attempt of the
// current fallible round at tier without blocking. For verdicts under
// which the collective completes (clean, straggler, corrupt) the
// payload is posted through the nonblocking substrate; for drop/crash
// verdicts no rank posts anything — the shared verdict keeps the SPMD
// ranks in lockstep — and the loss is charged when Wait resolves the
// attempt with the tier's arithmetic and the tier's failure accounting.
func (f *FaultyComm) IAttemptAllreduceSharedTier(local []float64, attempt int, tier Tier) *PendingAttempt {
	v := f.plan.Verdict(f.round, attempt, f.Size())
	p := &PendingAttempt{f: f, verdict: v, round: f.round, attempt: attempt, words: len(local), tier: tier}
	switch v.Kind {
	case FaultNone, FaultStraggler, FaultCorrupt:
		p.req = IAllreduceSharedTier(f.Comm, local, tier)
	}
	return p
}

// Wait resolves the pending attempt: it completes the in-flight
// collective (when the verdict lets it complete) and applies the
// verdict. Idempotent.
func (p *PendingAttempt) Wait() ([]float64, bool) {
	if p.done {
		return p.res, p.ok
	}
	p.done = true
	var res []float64
	if p.req != nil {
		res = p.req.Wait()
	}
	p.res, p.ok = p.resolve(res)
	return p.res, p.ok
}

func (f *FaultyComm) record(ev FaultEvent) { f.events = append(f.events, ev) }

// corruptPayload flips one random bit in each of words distinct-ish
// positions of buf, deterministically in (seed, round, attempt).
func corruptPayload(buf []float64, seed uint64, round, attempt, words int) {
	if len(buf) == 0 {
		return
	}
	r := rng.NewSource(seed^0xbadc0ffee).Stream(round, attempt)
	for i := 0; i < words; i++ {
		pos := r.Intn(len(buf))
		bit := uint(r.Intn(64))
		buf[pos] = math.Float64frombits(math.Float64bits(buf[pos]) ^ (1 << bit))
	}
}
