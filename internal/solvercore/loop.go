// Package solvercore is the shared runtime of every solver in this
// repository. The paper's Algorithm 1 is one loop — sample, form the
// local (H, R) batch, allreduce, run inner passes on the shared batch,
// checkpoint — and Loop owns exactly that skeleton, parameterized by
// small interfaces: BatchFiller (stage A+B local compute, drawing the
// shared index set with a StreamSampler), Exchanger (stage C:
// blocking, nonblocking/pipelined, and faulty communication with the
// retry/backoff/degradation policy), InnerPass (stage D updates), and
// StopPolicy. PipelinedLoop is the same skeleton with stage C posted
// nonblocking; both charge and record identically. A Recorder merges the perf.Cost, trace, and fault-event
// bookkeeping all solvers previously duplicated, and a
// context.Context threads cancellation through every round.
//
// A round is one collective: the cancellation vote rides the stage-C
// batch as a trailer word, billed to no one, so flop, message and word
// accounting is the paper's and the engines' exactly. A round whose
// exchange ships no fresh batch — degraded or skipped under faults —
// carries no vote and takes the standalone consensus instead, also
// unbilled. Golden fixtures in the repository root pin iterates and
// costs bit for bit.
package solvercore

import (
	"context"
	"errors"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// BatchFiller computes the rank's local batch contribution (stages A
// and B) into a caller-owned buffer. Fill returns its compute cost and
// charges nothing: the Loop charges it when the batch goes to stage C,
// so a batch the pipelined loop fills early is billed at the same point
// of the cost stream as a blocking round's. Fill must be pure local
// compute — no collectives — so it is safe to run while a nonblocking
// allreduce is in flight.
type BatchFiller interface {
	// BatchLen is the buffer length Fill expects. It is re-queried at
	// every round boundary, so a filler whose wire layout shrinks or
	// grows between rounds (the active-set engine's |A|-dependent slot)
	// gets a correctly sized buffer each time; the Loop reuses backing
	// storage across rounds whenever capacity allows.
	BatchLen() int
	// Fill writes the local batch into buf and returns its cost.
	Fill(buf []float64) perf.Cost
}

// InnerPass consumes one shared (allreduced) batch. Process performs
// the round's solution updates, checkpoints included, and reports true
// when the outer loop must stop (convergence or iteration budget).
// OnSkip is consulted instead when a fallible round was lost with no
// stale batch to fall back on; it reports true to abandon the solve
// (e.g. a never-healing network) and false to try the next round.
type InnerPass interface {
	Process(shared []float64) bool
	OnSkip() bool
}

// StopPolicy gates round starts: Done reports that no further round
// may begin.
type StopPolicy interface {
	Done() bool
}

// Speculator is the StopPolicy side of the pipelined loop. MoreAfterNext
// reports, before the in-flight round resolves, that the round cannot
// stop the solve — so the next batch can be filled under the in-flight
// collective and is never thrown away at a stop. It must return false
// whenever the round can stop; a false that turns out wrong only
// delays the next fill until after the round resolves.
type Speculator interface {
	MoreAfterNext() bool
}

// Spec wires one solve onto Loop.
type Spec struct {
	// Ctx is voted on in every round; nil means background.
	Ctx context.Context
	// Comm is the communicator, or nil for sequential solvers. It is
	// used only for the standalone cancellation consensus on rounds that
	// delivered no vote; all data movement, the vote included, goes
	// through Exchange.
	Comm dist.Comm
	// Rec receives the round counter (Loop advances Rec.Rounds once
	// per exchange, lost rounds included) and each batch's fill cost.
	Rec      *Recorder
	Fill     BatchFiller
	Exchange Exchanger
	Pass     InnerPass
	Stop     StopPolicy
}

// Loop runs the blocking round loop — fill, exchange, process — to
// completion or cancellation. Every round's exchange carries each
// rank's cancellation flag; when the summed vote is positive every rank
// returns the context's error at that round, before Process, with the
// Recorder (and the solver state behind Fill/Pass) in a consistent
// partial state: no collective is left in flight, and Finish still
// yields a well-formed Result.
func Loop(spec Spec) error {
	var buf []float64
	for !spec.Stop.Done() {
		buf = resize(buf, spec.Fill.BatchLen())
		spec.Rec.Cost.Add(spec.Fill.Fill(buf))
		shared, vote := spec.Exchange.Exchange(buf, cancelled(spec.Ctx))
		spec.Rec.Rounds++
		if err := settle(spec.Ctx, spec.Comm, vote); err != nil {
			return err
		}
		if shared == nil {
			if spec.Pass.OnSkip() {
				return nil
			}
			continue
		}
		if spec.Pass.Process(shared) {
			return nil
		}
	}
	return nil
}

// PipelinedLoop is Loop split in phases, with Loop's cancellation
// contract: round r's exchange is posted nonblocking and, while it is
// in flight, round r+1's batch is filled into the second buffer — when
// the Speculator says round r cannot stop; otherwise after round r
// resolves. Sampling is a pure function of the slot counter and a fill
// reads nothing Process writes, so the update stream is Loop's bit for
// bit, and because each fill is charged when its batch is posted, so
// are Cost, the modeled time and every trace point. The vote is taken
// when a batch is posted and read when it resolves, before anything
// else is posted: a cancelled loop never leaves a collective in flight.
// Exchange must be an AsyncExchanger and Stop a Speculator, and Fill
// must not depend on state Process changes.
func PipelinedLoop(spec Spec) error {
	aex, ok := spec.Exchange.(AsyncExchanger)
	sp, ok2 := spec.Stop.(Speculator)
	if !ok || !ok2 {
		return errors.New("solvercore: PipelinedLoop needs an AsyncExchanger and a Speculator")
	}
	if spec.Stop.Done() {
		return nil
	}
	buf := resize(nil, spec.Fill.BatchLen())
	var next []float64
	spec.Rec.Cost.Add(spec.Fill.Fill(buf))
	p := aex.Post(buf, cancelled(spec.Ctx))
	for {
		var fill perf.Cost
		speculated := sp.MoreAfterNext()
		if speculated {
			next = resize(next, spec.Fill.BatchLen())
			fill = spec.Fill.Fill(next)
		}
		shared, vote := aex.Resolve(p)
		spec.Rec.Rounds++
		if err := settle(spec.Ctx, spec.Comm, vote); err != nil {
			return err
		}
		if shared == nil {
			if spec.Pass.OnSkip() {
				return nil
			}
		} else if spec.Pass.Process(shared) {
			return nil
		}
		if spec.Stop.Done() {
			return nil
		}
		if !speculated {
			next = resize(next, spec.Fill.BatchLen())
			fill = spec.Fill.Fill(next)
		}
		spec.Rec.Cost.Add(fill)
		buf, next = next, buf
		p = aex.Post(buf, cancelled(spec.Ctx))
	}
}

// resize returns buf re-sliced to length n, reusing its backing array
// when capacity allows, with room left for the vote trailer. Fillers
// zero or overwrite their buffer, so stale contents from a previous
// (possibly longer) round never leak.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n+trailerCap {
		return make([]float64, n, n+trailerCap)
	}
	return buf[:n]
}

// cancelled is this rank's vote: whether its context is done.
func cancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// settle turns a round's vote into the Loop's verdict: a cancel vote
// ends the solve; a round that delivered no vote runs the standalone
// consensus instead. Every rank gets the same vote (or the same
// delivery verdict), so all ranks take the same branch.
func settle(ctx context.Context, c dist.Comm, v Vote) error {
	switch v {
	case VoteCancel:
		return cancelErr(ctx)
	case VoteMissing:
		return checkCancel(ctx, c)
	}
	return nil
}

// cancelErr is the error a rank returns on a cancel vote: its own
// context's, or context.Canceled when another rank voted.
func cancelErr(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// checkCancel is the standalone cancellation consensus, run only on a
// round whose exchange delivered no vote: a degraded or skipped
// fallible round. Every rank computes its local flag and the ranks
// agree by an OpMax allreduce, so all ranks leave the loop at the same
// round even when only some observed the cancellation — a rank
// returning alone would deadlock the others in the next collective.
// Whether it runs depends only on the shared delivery verdict, never on
// a rank-local fact such as a nil context, so every rank enters it
// together. Like the trailer it stands in for, the consensus is
// control: its cost is rolled back.
func checkCancel(ctx context.Context, c dist.Comm) error {
	flag := 0.0
	if cancelled(ctx) {
		flag = 1
	}
	if c != nil && c.Size() > 1 {
		saved := *c.Cost()
		flag = dist.AllreduceScalar(c, flag, dist.OpMax)
		*c.Cost() = saved
	}
	if flag != 0 {
		return cancelErr(ctx)
	}
	return nil
}
