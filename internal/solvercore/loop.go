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
// context.Context threads cancellation through every round boundary.
//
// Ports onto Loop are bit-identical to the engines they replace:
// identical collective sequences (checkCancel rolls its consensus cost
// back), identical flop accounting, identical trace points. Golden
// fixtures in the repository root pin this guarantee.
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
	// Ctx is checked at every round boundary; nil means background.
	Ctx context.Context
	// Comm is the communicator, or nil for sequential solvers. It is
	// used only for the cancellation consensus (and its cost
	// rollback); all data movement goes through Exchange.
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

// Loop runs the round loop to completion or cancellation. On
// cancellation it returns the context's error with the Recorder (and
// the solver state behind Fill/Pass) in a consistent partial state: no
// collective is left in flight, and Finish still yields a well-formed
// Result.
func Loop(spec Spec) error {
	if spec.Pipeline {
		return runPipelined(spec)
	}
	return runBlocking(spec)
}

// resize returns buf re-sliced to length n, reusing its backing array
// when capacity allows. Fillers zero or overwrite their buffer, so
// stale contents from a previous (possibly longer) round never leak.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// runBlocking is the fill → exchange → process round loop.
func runBlocking(spec Spec) error {
	var buf []float64
	for !spec.Stop.Done() {
		if err := checkCancel(spec.Ctx, spec.Comm); err != nil {
			return err
		}
		buf = resize(buf, spec.Fill.BatchLen())
		spec.Fill.Fill(buf)
		shared := spec.Exchange.Exchange(buf)
		spec.Rec.Rounds++
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
// of pipelining, matched by real MPI_Iallreduce codes.
func runPipelined(spec Spec) error {
	aex, ok := spec.Exchange.(AsyncExchanger)
	if !ok {
		return errors.New("solvercore: Pipeline requires an AsyncExchanger")
	}
	rf, _ := spec.Fill.(Refiller)
	buf := resize(nil, spec.Fill.BatchLen())
	var next []float64
	spec.Fill.Fill(buf)
	// The cancel check sits before every Post so a cancelled loop never
	// leaves a collective in flight.
	if err := checkCancel(spec.Ctx, spec.Comm); err != nil {
		return err
	}
	p := aex.Post(buf)
	for {
		// Will another round follow this one on the normal path? If
		// so, fill it now, under the in-flight collective. On a
		// fault-skip the prediction errs short and the fill happens
		// non-overlapped below; on a convergence stop it errs long and
		// the fill is wasted. The slot counter advances per round
		// regardless of outcome, so the sample sequence is unaffected
		// either way.
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
		shared := aex.Resolve(p)
		spec.Rec.Rounds++
		if speculated {
			c := spec.Comm
			cc := spec.CommCost
			if spec.CommCostOf != nil {
				cc = spec.CommCostOf(len(buf))
			}
			c.Cost().AddOverlap(c.Machine().Overlap(fillCost, cc))
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
		if err := checkCancel(spec.Ctx, spec.Comm); err != nil {
			return err
		}
		buf, next = next, buf
		p = aex.Post(buf)
	}
}

// checkCancel implements cooperative SPMD cancellation: every rank
// computes a local cancelled flag and the ranks agree by an OpMax
// allreduce, so all ranks leave the loop at the same round even when
// only some observed the cancellation — a rank returning alone would
// deadlock the others in the next collective. The consensus cost is
// rolled back so cancellable runs price identically to the golden
// engines.
func checkCancel(ctx context.Context, c dist.Comm) error {
	if ctx == nil {
		return nil
	}
	flag := 0.0
	if ctx.Err() != nil {
		flag = 1
	}
	if c != nil && c.Size() > 1 {
		saved := *c.Cost()
		flag = dist.AllreduceScalar(c, flag, dist.OpMax)
		*c.Cost() = saved
	}
	if flag != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Another rank observed the cancellation first.
		return context.Canceled
	}
	return nil
}
