package solvercore

import (
	"math"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Recorder owns the bookkeeping every solver used to duplicate: the
// trace series, the iteration/round counters, the final objective and
// relative error, the fault statistics, and the Result assembly. One
// Recorder serves one rank's solve; rank 0's Recorder carries the
// trace (the collective verdicts are identical on all ranks, so
// recording on rank 0 loses nothing).
type Recorder struct {
	// Series receives the trace points and fault events (rank 0 only).
	Series *trace.Series
	// Cost is the rank's algorithm cost; Machine converts it to
	// modeled seconds for the per-point ModelSec clock.
	Cost    *perf.Cost
	Machine perf.Machine
	// Rank guards trace appends.
	Rank int
	// Start anchors the wall-clock axis.
	Start time.Time
	// Tol and FStar define the relative-error stop checked at each
	// checkpoint. Tol <= 0 disables; FStar NaN records NaN errors.
	Tol, FStar float64

	// Iter counts solution updates; Rounds counts communication rounds
	// (Loop advances Rounds, the InnerPass advances Iter).
	Iter, Rounds int
	// Converged reports whether a stopping criterion fired.
	Converged bool
	// FinalObj and FinalRelErr track the most recent checkpoint.
	FinalObj, FinalRelErr float64
	// Active is the working-set size stamped into trace points by
	// solvers running with dynamic screening; 0 means dense.
	Active int
	// Faults accumulates the retry/degrade/skip statistics charged by a
	// TieredExchanger under a FaultPlan.
	Faults FaultStats
}

// NewRecorder returns a Recorder for one rank's solve with the
// wall-clock started and FinalRelErr initialized to NaN (unknown).
func NewRecorder(name string, rank int, cost *perf.Cost, machine perf.Machine) *Recorder {
	return &Recorder{
		Series:      &trace.Series{Name: name},
		Cost:        cost,
		Machine:     machine,
		Rank:        rank,
		Start:       time.Now(),
		FStar:       math.NaN(),
		FinalRelErr: math.NaN(),
	}
}

// CheckpointAt records a trace point at explicit (iter, round)
// coordinates and reports whether the Tol stop fires. The ModelSec
// clock is this rank's own accumulated cost, not the cross-rank
// critical path: the per-point modeled clock of one rank's SPMD
// stream. The end-of-run Result.ModelSeconds is the same rank-local
// quantity; World.ModeledSeconds takes the max over ranks and is the
// figure-of-merit critical path.
func (r *Recorder) CheckpointAt(iter, round int, f float64) bool {
	re := RelErr(f, r.FStar)
	r.FinalObj, r.FinalRelErr = f, re
	if r.Rank == 0 {
		r.Series.Append(trace.Point{
			Iter: iter, Round: round,
			Obj: f, RelErr: re,
			ModelSec: r.Machine.Seconds(*r.Cost),
			WallSec:  time.Since(r.Start).Seconds(),
			Active:   r.Active,
		})
	}
	return r.Tol > 0 && !math.IsNaN(re) && re <= r.Tol
}

// RecorderMark captures the rewindable checkpoint bookkeeping of a
// Recorder, so a solver that must redo a round — the active-set
// engine's KKT re-expansion protocol — can discard the aborted
// attempt's trace points and counter advances. Rounds and Cost are
// deliberately NOT rewound: the redone work and its communication
// genuinely happened and stay charged; only the convergence-history
// artifacts of the abandoned iterates are withdrawn.
type RecorderMark struct {
	iter                  int
	points                int
	finalObj, finalRelErr float64
	converged             bool
}

// Mark captures the current rewindable state.
func (r *Recorder) Mark() RecorderMark {
	return RecorderMark{
		iter:     r.Iter,
		points:   len(r.Series.Points),
		finalObj: r.FinalObj, finalRelErr: r.FinalRelErr,
		converged: r.Converged,
	}
}

// Rewind restores the state captured by Mark, truncating any trace
// points appended since. Events are kept — they log incidents that
// really occurred, the re-expansion itself included.
func (r *Recorder) Rewind(m RecorderMark) {
	r.Iter = m.iter
	if len(r.Series.Points) > m.points {
		r.Series.Points = r.Series.Points[:m.points]
	}
	r.FinalObj, r.FinalRelErr = m.finalObj, m.finalRelErr
	r.Converged = m.converged
}

// Checkpoint is CheckpointAt at the Recorder's own counters.
func (r *Recorder) Checkpoint(f float64) bool {
	return r.CheckpointAt(r.Iter, r.Rounds, f)
}

// RecordFault logs one injected fault in rank 0's trace. The verdicts
// are shared, so every rank sees the same events and recording on rank
// 0 loses nothing.
func (r *Recorder) RecordFault(ev dist.FaultEvent) {
	if r.Rank != 0 {
		return
	}
	r.Series.AppendEvent(trace.Event{
		Round: ev.Round, Iter: r.Iter, Kind: ev.Kind.String(),
		Rank: ev.Rank, Attempt: ev.Attempt, StallSec: ev.StallSec,
	})
}

// RecordRecovery logs the solver's per-round recovery decision.
func (r *Recorder) RecordRecovery(kind string, round int, detail string) {
	if r.Rank != 0 {
		return
	}
	r.Series.AppendEvent(trace.Event{
		Round: round, Iter: r.Iter, Kind: kind, Rank: -1, Detail: detail,
	})
}

// Finish packages the run state into a Result. W is stored as given;
// callers whose iterate buffer outlives the solve should clone first.
func (r *Recorder) Finish(w []float64) *Result {
	res := &Result{
		W:            w,
		Iters:        r.Iter,
		Rounds:       r.Rounds,
		Converged:    r.Converged,
		FinalObj:     r.FinalObj,
		FinalRelErr:  r.FinalRelErr,
		GradMap:      math.NaN(),
		Cost:         *r.Cost,
		ModelSeconds: r.Machine.Seconds(*r.Cost),
		WallSeconds:  time.Since(r.Start).Seconds(),
		Trace:        r.Series,
		Faults:       r.Faults,
	}
	res.Faults.StallSec = r.Cost.StallSec
	return res
}
