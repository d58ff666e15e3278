package solver

// Batch-stream replay. The sampled (H_n, R_n) of Eq. 18 depend only on
// the data, the world size and the seeded sample stream — not on w, λ,
// the regularizer or any tolerance — so the allreduced k-slot batch of
// round r is the same bits in every solve that shares (d, m, P, seed,
// m̄, k). A Resident (resident.go) records those batches once per
// (seed, m̄, k); a later solve on the same data replays the recorded
// prefix, skipping stage B (Fill only advances the slot counter) and
// stage C (the exchanger wrapper hands back the recorded batch), and
// runs live from the first round the stream lacks, extending it.
// Replayed rounds take the standalone cancellation consensus once per
// variance-reduction epoch, not once per round (see replayer.replay).

import (
	"slices"
	"sync/atomic"

	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// batchStream is the recorded reduced batch stream of one (seed, m̄,
// k) on its Resident's (data, P): the shared batch of round 0, 1, 2, …
// as Process reads it, guarded by the Resident's lock.
type batchStream struct{ rounds [][]float64 }

// streamKey names one batch stream of a Resident. Everything else a
// solve varies — λ, the regularizer, S, the epoch, the tolerances, a
// warm start — leaves the batches alone, so those solves share it.
type streamKey struct {
	seed    uint64
	mbar, k int
}

// StreamBudget caps the bytes a family of Residents holds together. A
// stream whose next round does not fit stops growing and keeps its
// prefix; a triple that does not fit is not kept.
type StreamBudget struct {
	limit int64
	used  atomic.Int64
}

// NewStreamBudget returns a budget of limit bytes.
func NewStreamBudget(limit int64) *StreamBudget { return &StreamBudget{limit: limit} }

// DataBytes is the in-memory size of a problem's X and y: the budget
// under which its resident state never costs more memory than the data
// itself.
func DataBytes(x *sparse.CSC, y []float64) int64 {
	return 8 * int64(len(x.ColPtr)+len(x.RowIdx)+len(x.Val)+len(y))
}

// Used reports the bytes the budget's holders keep.
func (b *StreamBudget) Used() int64 { return b.used.Load() }

// reserve takes n bytes from the budget, or reports false and takes
// nothing when they do not fit.
func (b *StreamBudget) reserve(n int64) bool {
	for {
		u := b.used.Load()
		if u+n > b.limit {
			return false
		}
		if b.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// replayable is the one rule for which solves may use a resident
// handle (Resident), its streams and its triple alike: not under
// ActiveSet, whose slots are laid out on the working set and which
// keeps no resident Gram; not under a CompressTier, whose error
// feedback and auto ratchet make the shared batch depend on the solve's
// own history; and not under a FaultPlan, whose lost rounds shift and
// reuse batches.
func replayable(o *Options) bool {
	t, err := parseTierConfig(o.CompressTier)
	return !o.ActiveSet && err == nil && !t.on && o.Faults == nil
}

// record appends a copy of round n's shared batch to the view's stream
// when it holds exactly n rounds and the budget has room. Every
// writer's round n is the same bits, so racing solves are harmless.
func (v *residentView) record(n int, batch []float64) bool {
	r, s := v.r, v.s
	r.mu.Lock()
	defer r.mu.Unlock()
	bytes := 8 * int64(len(batch))
	if len(s.rounds) != n || !r.budget.reserve(bytes) {
		return false
	}
	s.rounds = append(s.rounds, slices.Clone(batch))
	r.streamBytes += bytes
	return true
}

// replayer is one rank's stage C under a stream: it hands back the
// recorded batch for rounds inside the prefix and runs the engine's
// exchanger for the rest, rank 0 recording each live batch. Exchange
// and Post/Resolve strictly alternate per round on both loops, so one
// counter names the round in flight. perRound is the k·S updates a
// round makes and epoch the EpochLen of a variance-reduction epoch.
type replayer struct {
	*residentView
	inner              *solvercore.TieredExchanger
	rank0              bool
	round              int
	replayed, recorded int
	perRound, epoch    int
}

// replay returns the recorded batch of the round in flight and advances
// the counter, or nil when the round runs live. A replayed round ships
// nothing, so it carries no trailer vote. Only the replayed round n
// whose updates close an epoch — ⌊n·k·S/EpochLen⌋ grows at n — says
// VoteMissing and sends the Loop to its standalone consensus; every
// other says VoteContinue and synchronizes nothing. Every rank computes
// the same rule from the same values, so a deadline still stops every
// rank at one round, at most one epoch of replayed rounds after it
// expired. The first live round's trailer votes as every live round's
// does.
func (r *replayer) replay() ([]float64, solvercore.Vote) {
	if r.round >= len(r.rounds) {
		return nil, solvercore.VoteMissing
	}
	r.round++
	r.replayed++
	v := solvercore.VoteContinue
	if r.round*r.perRound/r.epoch > (r.round-1)*r.perRound/r.epoch {
		v = solvercore.VoteMissing
	}
	return r.rounds[r.round-1], v
}

// keep records a live round's shared batch on rank 0 and advances the
// counter.
func (r *replayer) keep(shared []float64, v solvercore.Vote) ([]float64, solvercore.Vote) {
	if r.rank0 && shared != nil && r.record(r.round, shared) {
		r.recorded++
	}
	r.round++
	return shared, v
}

// Exchange is a blocking round: replayed, or the engine's and kept.
func (r *replayer) Exchange(local []float64, cancel bool) ([]float64, solvercore.Vote) {
	if b, v := r.replay(); b != nil {
		return b, v
	}
	return r.keep(r.inner.Exchange(local, cancel))
}

// Post posts a live round; a replayed round posts nothing.
func (r *replayer) Post(local []float64, cancel bool) solvercore.Pending {
	if r.round < len(r.rounds) {
		return solvercore.Pending{}
	}
	return r.inner.Post(local, cancel)
}

// Resolve resolves the round Post started.
func (r *replayer) Resolve(p solvercore.Pending) ([]float64, solvercore.Vote) {
	if b, v := r.replay(); b != nil {
		return b, v
	}
	return r.keep(r.inner.Resolve(p))
}

// covers reports whether the batch at slot counter hIdx is replayed,
// so Fill computes nothing for it. Nil-safe: no stream covers nothing.
func (r *replayer) covers(hIdx, k int) bool {
	return r != nil && hIdx < len(r.rounds)*k
}

// stageC is the exchanger the engine's round loop runs on.
func (e *engine) stageC() solvercore.AsyncExchanger {
	if e.rp != nil {
		return e.rp
	}
	return e.exch
}

// report stamps a finished solve's replay counts; nil-safe.
func (r *replayer) report(res *Result) {
	if r != nil {
		res.Replayed, res.Recorded = r.replayed, r.recorded
	}
}
