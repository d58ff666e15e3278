package solvercore

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/dist"
)

// EFStream is one error-feedback residual stream for a tiered
// collective reduction. Every distinct reduction site (the stage-A
// gradient refresh, the KKT full-gradient scan) owns its own stream:
// residuals are a running carry of that site's quantization error, and
// mixing sites would inject one reduction's error into an unrelated
// payload. A site that reuses another's reduction of the same vector
// (a scan landing on a snapshot iterate) reduces nothing and leaves
// its own stream untouched.
//
// Reduce folds the carried residual into the payload, derives the new
// residual locally (resid = z - TierRound(z), deterministic and
// identical on every rank), ships the RAW folded payload through the
// tier's collective — quantization happens exactly once per hop inside
// the substrate — and writes the shared result back in place. Under
// TierF64 the round trips at full precision and the residual drains to
// zero through the fold: a stream that tightens from i8 to f64 near
// convergence automatically returns its carried error to the iterates.
type EFStream struct {
	resid []float64
	z     []float64
}

// idle reports whether a tier-t reduction bypasses the stream: it has
// never left f64, so there is no residual to fold — and folding
// anyway would not be free of effect, v + 0.0 flips −0. Bypassing
// keeps the plain collective's exact arithmetic (and golden
// bit-identity) and allocates nothing.
func (s *EFStream) idle(t dist.Tier) bool { return t == dist.TierF64 && s.resid == nil }

// fold returns the raw payload to ship for local at tier t — local
// plus the carried residual — and replaces the residual with the
// quantization error the tier's wire will make on it. local is not
// modified; the returned buffer is owned by the stream. A length
// change reslices the payload (an active-set layout change), so the
// carried residual's coordinates are meaningless and the stream resets
// before folding. The returned buffer has room for a vote trailer.
func (s *EFStream) fold(local []float64, t dist.Tier) []float64 {
	if len(s.resid) != len(local) {
		s.resid = make([]float64, len(local))
		s.z = make([]float64, len(local), len(local)+trailerCap)
	}
	z := s.z
	for i, v := range local {
		z[i] = v + s.resid[i]
	}
	dist.TierRound(s.resid, z, t) // resid temporarily holds Q(z)
	for i, q := range s.resid {
		s.resid[i] = z[i] - q
	}
	return z
}

// Reduce sum-allreduces buf in place at (the effective floor of) tier
// t with error feedback.
func (s *EFStream) Reduce(c dist.Comm, buf []float64, t dist.Tier) {
	t = dist.EffectiveTier(t, len(buf))
	if s.idle(t) {
		c.Allreduce(buf, dist.OpSum)
		return
	}
	copy(buf, dist.AllreduceSharedTier(c, s.fold(buf, t), t))
}

// Reset drops the carried residual (a working-set generation change).
func (s *EFStream) Reset() {
	for i := range s.resid {
		s.resid[i] = 0
	}
}

// TieredExchanger is the RC-SFISTA engine's stage C: the batched
// Hessian allreduce ships through the tier selected per round by
// TierOf (always f64, a fixed tier, or the solver's auto policy), with
// per-rank error feedback once a round has compressed, and — under an
// injected dist.FaultPlan (FC != nil) — a fallible path that retries
// lost attempts with exponential backoff and, when the round fails
// outright, degrades to the last good batch — the solver keeps
// updating on the stale Hessian instances, dynamically raising the
// paper's reuse parameter S — or, before any batch has ever arrived,
// returns nil to skip the round. Every branch is driven by the shared
// fault verdicts, so all ranks take identical control flow without
// extra coordination. Stats and events land in Rec.
//
// While the stream has never left f64 the exchanger ships local
// untouched and allocates nothing (EFStream.idle): the uncompressed
// solve, with or without faults, is bit-identical to a plain
// (I)AllreduceShared. The vote trailer rides behind the payload at
// every tier (voteAt); a flag of 0 moves no payload bit.
//
// Error feedback across faults: the residual update happens at
// prepare, but a round that ultimately fails (degrade to stale batch,
// or skip) never delivered the prepared contribution — carrying its
// quantization error forward would apply feedback for an exchange that
// did not happen. The exchanger therefore snapshots the residual at
// prepare and rolls it back when the round is lost; retries of the
// same round reuse the identical prepared payload, so a retry that
// eventually succeeds keeps the (single) residual update.
type TieredExchanger struct {
	// C is the communicator for reliable rounds; when FC is non-nil
	// the fallible attempt surface is used instead.
	C dist.Comm
	// TierOf picks the wire tier for an n-value round. It must be
	// deterministic from allreduced state so all ranks agree.
	TierOf func(n int) dist.Tier
	// FC, Rec, MaxRetries, Backoff configure fault handling. FC == nil
	// means reliable rounds.
	FC         *dist.FaultyComm
	Rec        *Recorder
	MaxRetries int
	// Backoff is the attempt-1 retry delay; it doubles per attempt.
	Backoff float64

	ef   EFStream
	prev []float64 // the residual before this round's fold

	lastGood   []float64
	staleDepth int
}

// prepare returns the wire image to ship for local — local itself on
// the never-compressed path, else the folded payload — followed by the
// vote trailer when vote is set, plus the round's effective tier,
// keeping the pre-fold residual for rollback. The tier is chosen for
// the payload length: the trailer never moves a tier decision.
func (e *TieredExchanger) prepare(local []float64, vote, cancel bool) ([]float64, dist.Tier) {
	tier := dist.EffectiveTier(e.TierOf(len(local)), len(local))
	wire := local
	if !e.ef.idle(tier) {
		e.prev = append(e.prev[:0], e.ef.resid...)
		wire = e.ef.fold(local, tier)
	}
	if vote {
		wire = appendVote(wire, cancel, tier)
	}
	return wire, tier
}

// rollback restores the residual prepare replaced; a fold that reset
// the stream for a new length rolls back to that reset.
func (e *TieredExchanger) rollback() {
	if len(e.prev) != len(e.ef.resid) {
		e.ef.Reset()
		return
	}
	copy(e.ef.resid, e.prev)
}

// ResetResidual drops the carried residual. The solver calls it when
// the active working set changes generation: the packed batch layout
// changed meaning even if its length happens to match.
func (e *TieredExchanger) ResetResidual() { e.ef.Reset() }

// Exchange runs one blocking tiered round carrying this rank's vote.
func (e *TieredExchanger) Exchange(local []float64, cancel bool) ([]float64, Vote) {
	return e.exchange(local, true, cancel)
}

// Redo runs one blocking tiered round outside the Loop — the active-set
// engine's window redo — with no vote trailer: the ranks already agreed
// to run the round it redoes.
func (e *TieredExchanger) Redo(local []float64) []float64 {
	shared, _ := e.exchange(local, false, false)
	return shared
}

func (e *TieredExchanger) exchange(local []float64, vote, cancel bool) ([]float64, Vote) {
	n := len(local)
	wire, tier := e.prepare(local, vote, cancel)
	if e.FC == nil {
		shared := dist.AllreduceSharedTier(e.C, wire, tier)
		refundVote(e.C, n, len(wire), tier)
		return readVote(shared, n, tier)
	}
	return e.resolve(n, len(wire), tier, func(a int) ([]float64, bool) {
		return e.FC.AttemptAllreduceSharedTier(wire, a, tier)
	})
}

// Post prepares and posts the tiered allreduce nonblocking. Under a
// FaultPlan it posts attempt 0, whose verdict resolves at Resolve
// exactly as the blocking attempt would have resolved it. A folded
// payload is owned by the exchanger and stays untouched until Resolve.
func (e *TieredExchanger) Post(local []float64, cancel bool) Pending {
	wire, tier := e.prepare(local, true, cancel)
	p := Pending{buf: wire, n: len(local), tier: tier}
	if e.FC == nil {
		p.req = dist.IAllreduceSharedTier(e.C, wire, tier)
	} else {
		p.att = e.FC.IAttemptAllreduceSharedTier(wire, 0, tier)
	}
	return p
}

// Resolve blocks on the posted round and, under faults, runs the same
// retry/degrade/skip machine as Exchange: attempt 0 resolves the
// posted collective, retries fall back to blocking attempts — the
// overlap window has already been spent by then. Retries re-ship the
// already-prepared wire image — the residual was updated once at
// prepare and must not compound per attempt.
func (e *TieredExchanger) Resolve(p Pending) ([]float64, Vote) {
	if e.FC == nil {
		shared := p.req.Wait()
		refundVote(e.C, p.n, len(p.buf), p.tier)
		return readVote(shared, p.n, p.tier)
	}
	return e.resolve(p.n, len(p.buf), p.tier, func(a int) ([]float64, bool) {
		if a == 0 {
			return p.att.Wait()
		}
		return e.FC.AttemptAllreduceSharedTier(p.buf, a, p.tier)
	})
}

// resolve drives the retry/degrade/skip state machine of one fallible
// round whose n-value payload ships as a wire-value image at tier.
// attempt(a) performs (or, for a pipelined round's already-posted
// attempt 0, resolves) attempt number a and reports whether it
// delivered a batch; every attempt, lost or not, is refunded its
// trailer. Only a delivered batch carries a vote: a degraded or skipped
// round returns VoteMissing. Shared by the blocking and pipelined paths
// so both observe identical stats, events and recovery decisions for
// identical fault verdicts.
func (e *TieredExchanger) resolve(n, wire int, tier dist.Tier, attempt func(a int) ([]float64, bool)) ([]float64, Vote) {
	cost := e.FC.Cost()
	round := e.FC.Round()
	for a := 0; a <= e.MaxRetries; a++ {
		if a > 0 {
			// Exponential backoff before each retry, charged as waiting.
			cost.AddStall(e.Backoff * float64(int64(1)<<uint(a-1)))
			e.Rec.Faults.Retries++
		}
		res, ok := attempt(a)
		refundVote(e.C, n, wire, tier)
		if !ok {
			continue
		}
		e.Rec.DrainFaultEvents(e.FC)
		e.FC.EndRound()
		if a > 0 {
			e.Rec.RecordRecovery("retry-ok", round, fmt.Sprintf("attempt %d succeeded", a))
		}
		shared, vote := readVote(res, n, tier)
		e.lastGood = shared
		e.staleDepth = 0
		return shared, vote
	}
	// The round is lost: the prepared contribution never landed, so the
	// residual update it carried must not survive into the next round.
	e.rollback()
	e.Rec.Faults.FailedRounds++
	e.Rec.DrainFaultEvents(e.FC)
	e.FC.EndRound()
	if e.lastGood != nil {
		e.Rec.Faults.DegradedRounds++
		e.staleDepth++
		e.Rec.RecordRecovery("degrade", round,
			fmt.Sprintf("stale batch reuse x%d (S raised)", e.staleDepth))
		return e.lastGood, VoteMissing
	}
	e.Rec.Faults.SkippedRounds++
	e.Rec.RecordRecovery("skip", round, "no last-good batch yet")
	return nil, VoteMissing
}
