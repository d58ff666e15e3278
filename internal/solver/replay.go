package solver

// Batch-stream replay. The sampled (H_n, R_n) of Eq. 18 depend only on
// the data, the world size and the seeded sample stream — not on w, λ,
// the regularizer or any tolerance — so the allreduced k-slot batch of
// round r is the same bits in every solve that shares (d, m, P, seed,
// m̄, k). A BatchStream records those batches once; a later solve on
// the same data replays the recorded prefix, skipping stage B (Fill
// only advances the slot counter) and stage C (the exchanger wrapper
// hands back the recorded batch), and runs live from the first round
// the stream lacks, extending it.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// BatchStream is the recorded reduced batch stream of one (data, P,
// seed, m̄, k): the shared batch of round 0, 1, 2, … as Process reads
// it. Rounds are immutable once appended, so concurrent solves replay
// one stream without copies. The zero value is not usable; see
// NewBatchStream.
type BatchStream struct {
	mu     sync.Mutex
	id     streamID
	rounds [][]float64
	budget *StreamBudget
}

// streamID is the identity a stream is stamped with by the first solve
// that opens it. The zero value marks an unstamped stream.
type streamID struct {
	d, m, p, mbar, k int
	seed             uint64
}

// StreamBudget caps the bytes a family of streams holds together. A
// stream whose next round does not fit stops growing and keeps its
// prefix.
type StreamBudget struct {
	limit int64
	used  atomic.Int64
}

// NewStreamBudget returns a budget of limit bytes.
func NewStreamBudget(limit int64) *StreamBudget { return &StreamBudget{limit: limit} }

// DataBytes is the in-memory size of a problem's X and y: the budget
// under which its streams never cost more memory than the data itself.
func DataBytes(x *sparse.CSC, y []float64) int64 {
	return 8 * int64(len(x.ColPtr)+len(x.RowIdx)+len(x.Val)+len(y))
}

// Used reports the bytes the budget's streams hold.
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

// NewBatchStream returns an empty stream drawing on budget.
func NewBatchStream(budget *StreamBudget) *BatchStream {
	return &BatchStream{budget: budget}
}

// replayable is the one rule for which solves may use a resident
// handle (Resident), its stream and its Gram alike: not under
// ActiveSet, whose slots are laid out on the working set and which
// keeps no resident Gram; not under a CompressTier, whose error
// feedback and auto ratchet make the shared batch depend on the solve's
// own history; and not under a FaultPlan, whose lost rounds shift and
// reuse batches.
func replayable(o *Options) bool {
	t, err := parseTierConfig(o.CompressTier)
	return !o.ActiveSet && err == nil && !t.on && o.Faults == nil
}

// streamPrefix is one solve's view of its stream: the prefix every
// rank replays, read once before the world runs so all ranks take the
// same branch in every round.
type streamPrefix struct {
	s      *BatchStream
	rounds [][]float64
}

// open stamps s with id, the identity of the solve opening it, and
// returns the prefix that solve replays; an error when s was recorded
// under another identity. Nil-safe: no stream replays nothing.
func (s *BatchStream) open(id streamID) (*streamPrefix, error) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id == (streamID{}) {
		s.id = id
	} else if s.id != id {
		return nil, fmt.Errorf("solver: batch stream recorded under %+v, solve needs %+v", s.id, id)
	}
	return &streamPrefix{s: s, rounds: s.rounds[:len(s.rounds):len(s.rounds)]}, nil
}

// record appends a copy of round r's shared batch when the stream holds
// exactly r rounds and the budget has room. Every writer's round r is
// the same bits, so racing solves are harmless.
func (s *BatchStream) record(r int, batch []float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rounds) != r || !s.budget.reserve(8*int64(len(batch))) {
		return false
	}
	s.rounds = append(s.rounds, slices.Clone(batch))
	return true
}

// replayer is one rank's stage C under a stream: it hands back the
// recorded batch for rounds inside the prefix and runs the engine's
// exchanger for the rest, rank 0 recording each live batch. Exchange
// and Post/Resolve strictly alternate per round on both loops, so one
// counter names the round in flight.
type replayer struct {
	*streamPrefix
	inner              *solvercore.TieredExchanger
	rank0              bool
	round              int
	replayed, recorded int
}

// replay returns the recorded batch of the round in flight and advances
// the counter, or nil when the round runs live. A replayed round
// carries no vote: VoteMissing sends the Loop to its standalone
// consensus, so a deadline still stops every rank at one round.
func (r *replayer) replay() ([]float64, solvercore.Vote) {
	if r.round >= len(r.rounds) {
		return nil, solvercore.VoteMissing
	}
	r.round++
	r.replayed++
	return r.rounds[r.round-1], solvercore.VoteMissing
}

// keep records a live round's shared batch on rank 0 and advances the
// counter.
func (r *replayer) keep(shared []float64, v solvercore.Vote) ([]float64, solvercore.Vote) {
	if r.rank0 && shared != nil && r.s.record(r.round, shared) {
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
