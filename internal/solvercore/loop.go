// Package solvercore is the shared runtime of every solver in this
// repository. The paper's Algorithm 1 is one loop — sample, form the
// local (H, R) batch, allreduce, run inner passes on the shared batch,
// checkpoint — and Loop owns exactly that skeleton, parameterized by
// small interfaces: BatchFiller (stage A+B local compute, drawing the
// shared index set with a StreamSampler), Exchanger (stage C:
// blocking, nonblocking/pipelined, and faulty communication with the
// retry/backoff/degradation policy), InnerPass (stage D updates), and
// StopPolicy. A Recorder merges the perf.Cost, trace, and fault-event
// bookkeeping all solvers previously duplicated, and a
// context.Context threads cancellation through every round.
//
// A round is one collective: the cancellation vote rides the stage-C
// batch as a trailer word, billed to no one, so flop, message and word
// accounting is the paper's and the engines' exactly. Golden fixtures
// in the repository root pin iterates and costs bit for bit.
package solvercore

import (
	"context"
	"errors"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// BatchFiller computes the rank's local batch contribution (stages A
// and B) into a caller-owned buffer. Fill must charge its own compute
// to the run's cost and also return it, so a pipelined Loop can
// compare the fill segment against the in-flight collective for
// overlap accounting. Fill must be pure local compute — no collectives
// — so it is safe to run while a nonblocking allreduce is in flight.
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

// Refiller is an optional BatchFiller extension for fillers whose wire
// layout can change between rounds. Generation identifies the current
// layout; when a pipelined Loop finds that Process invalidated the
// layout a speculative fill used (the generation moved), it calls
// Refill to rebuild the same logical batch — same sample slots — under
// the new layout before posting it. The wasted speculative fill keeps
// its overlap credit (it genuinely ran under the in-flight collective);
// the refill is charged un-overlapped.
type Refiller interface {
	Generation() int
	Refill(buf []float64) perf.Cost
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

// StopPolicy decides the loop boundaries. Done gates round starts;
// MoreAfterNext predicts — before a pipelined round resolves — whether
// another round will follow it on the normal path, i.e. whether a
// speculative fill of the next batch can be overlapped with the
// in-flight collective.
type StopPolicy interface {
	Done() bool
	MoreAfterNext() bool
}

// Spec wires one solve onto Loop.
type Spec struct {
	// Ctx is voted on in every round; nil means background.
	Ctx context.Context
	// Comm is the communicator, or nil for sequential solvers. It is
	// used only for the standalone cancellation consensus on rounds that
	// delivered no vote, and for pipelined overlap accounting; all data
	// movement, the vote included, goes through Exchange.
	Comm dist.Comm
	// Rec receives the round counter (Loop advances Rec.Rounds once
	// per exchange, lost rounds included).
	Rec      *Recorder
	Fill     BatchFiller
	Exchange Exchanger
	Pass     InnerPass
	Stop     StopPolicy
	// Pipeline selects the nonblocking split-phase loop; Exchange must
	// then implement AsyncExchanger. CommCost is the modeled segment
	// of one stage-C collective — what the speculative fill hides in.
	Pipeline bool
	CommCost perf.Cost
	// CommCostOf, when set, supersedes CommCost with a cost derived
	// from the in-flight batch's actual length — required when the wire
	// layout varies between rounds (active-set engines). Nil keeps the
	// fixed CommCost, bit-for-bit.
	CommCostOf func(batchLen int) perf.Cost
}

// Loop runs the round loop to completion or cancellation. Every
// round's exchange carries each rank's cancellation flag; when the
// summed vote is positive every rank returns the context's error at
// that round, before Process, with the Recorder (and the solver state
// behind Fill/Pass) in a consistent partial state: no collective is
// left in flight, and Finish still yields a well-formed Result.
func Loop(spec Spec) error {
	if spec.Pipeline {
		return runPipelined(spec)
	}
	return runBlocking(spec)
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

// runBlocking is the fill → exchange → process round loop.
func runBlocking(spec Spec) error {
	var buf []float64
	for !spec.Stop.Done() {
		buf = resize(buf, spec.Fill.BatchLen())
		spec.Fill.Fill(buf)
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

// runPipelined is the split-phase variant: round r's exchange is
// posted nonblocking and, while it is in flight, round r+1's batch is
// speculatively filled into the second buffer. The update stream is
// bit-identical to runBlocking — sampling is a pure function of the
// slot counter, so filling early changes no sample set — only the
// modeled cost differs: each overlapped round charges
// Machine.Overlap(fill, CommCost) as hidden time. A speculative fill
// wasted by a convergence stop is charged but never used — the price
// of pipelining, matched by real MPI_Iallreduce codes. The vote is
// taken when a batch is posted, not when it is filled, and read when it
// resolves, before anything else is posted: a cancelled loop never
// leaves a collective in flight.
func runPipelined(spec Spec) error {
	aex, ok := spec.Exchange.(AsyncExchanger)
	if !ok {
		return errors.New("solvercore: Pipeline requires an AsyncExchanger")
	}
	rf, _ := spec.Fill.(Refiller)
	buf := resize(nil, spec.Fill.BatchLen())
	var next []float64
	spec.Fill.Fill(buf)
	p := aex.Post(buf, cancelled(spec.Ctx))
	for {
		// Will another round follow this one on the normal path? If
		// so, fill it now, under the in-flight collective. On a
		// fault-skip the prediction errs short and the fill happens
		// non-overlapped below; on a convergence stop or a cancel vote it
		// errs long and the fill is wasted. The slot counter advances per
		// round regardless of outcome, so the sample sequence is
		// unaffected either way.
		speculated := spec.Stop.MoreAfterNext()
		var fillCost perf.Cost
		genAtFill := 0
		if speculated {
			if rf != nil {
				genAtFill = rf.Generation()
			}
			next = resize(next, spec.Fill.BatchLen())
			fillCost = spec.Fill.Fill(next)
		}
		shared, vote := aex.Resolve(p)
		spec.Rec.Rounds++
		if speculated {
			c := spec.Comm
			cc := spec.CommCost
			if spec.CommCostOf != nil {
				cc = spec.CommCostOf(len(buf))
			}
			c.Cost().AddOverlap(c.Machine().Overlap(fillCost, cc))
		}
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
			spec.Fill.Fill(next)
		} else if rf != nil && rf.Generation() != genAtFill {
			// Process invalidated the wire layout the speculative fill
			// used (the active set moved): rebuild the same logical
			// batch under the new layout. The speculation's overlap
			// credit stands — that work really ran under the in-flight
			// collective — and the refill is charged un-overlapped.
			next = resize(next, spec.Fill.BatchLen())
			rf.Refill(next)
		}
		buf, next = next, buf
		p = aex.Post(buf, cancelled(spec.Ctx))
	}
}

// checkCancel is the standalone cancellation consensus, run only on a
// round whose exchange delivered no vote (a degraded or skipped
// fallible round). Every rank computes its local flag and the ranks
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
