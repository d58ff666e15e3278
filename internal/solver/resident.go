package solver

// Resident state: what one solve keeps for later solves of the same
// data on the same world size — the least-squares triple (G, r, c) of
// residentGram and the reduced batch streams (replay.go). Neither
// depends on λ, the regularizer, w or a tolerance.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Resident holds the state kept across solves of one (data, P): the
// least-squares triple — the packed G, then r, then c, as the fill's
// allreduce sums them — and the batch streams, one per (seed, m̄, k).
// It is stamped with the (d, m, P) of the first solve that opens it; a
// solve of another identity errors before its world runs. The triple
// is kept once and every round once, immutable after, so concurrent
// solves read them without copies; both draw on one budget, and what
// does not fit is not kept. SolveTriple, which answers a solve from the
// triple with no world, reads, fills and stamps it the same way. The
// zero value is not usable; see NewResident.
type Resident struct {
	mu      sync.Mutex
	id      residentID
	tri     []float64
	streams map[streamKey]*batchStream
	budget  *StreamBudget
	// streamBytes is the bytes the streams' rounds hold.
	streamBytes int64
}

// residentID is the identity a Resident is stamped with by the first
// solve that opens it. The zero value marks an unstamped holder.
type residentID struct{ d, m, p int }

// NewResident returns an empty holder drawing on budget.
func NewResident(budget *StreamBudget) *Resident {
	return &Resident{streams: map[streamKey]*batchStream{}, budget: budget}
}

// Bytes reports the bytes r's batch streams and its kept triple hold.
func (r *Resident) Bytes() (stream, gram int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streamBytes, 8 * int64(len(r.tri))
}

// keep stores a copy of a filled triple unless one is kept already or
// the budget lacks room. Every filler's triple is the same bits, so
// racing first solves are harmless: the first keeps, the rest drop
// theirs. Nil-safe.
func (r *Resident) keep(tri []float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tri == nil && r.budget.reserve(8*int64(len(tri))) {
		r.tri = slices.Clone(tri)
	}
}

// stamp stamps an unstamped r with id, or checks id against r's stamp.
// r.mu must be held.
func (r *Resident) stamp(id residentID) error {
	if r.id == (residentID{}) {
		r.id = id
	} else if r.id != id {
		return fmt.Errorf("solver: resident state stamped %+v, solve needs %+v", r.id, id)
	}
	return nil
}

// held stamps r with id, or checks id against its stamp, and returns
// r's kept triple, nil when it holds none. A nil r holds none.
func (r *Resident) held(id residentID) ([]float64, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.stamp(id); err != nil {
		return nil, err
	}
	return r.tri, nil
}

// residentView is one solve's reading of its handle, taken once before
// the world runs so every rank takes the same branches: the holder a
// fill is offered to, its kept triple (nil: every rank fills one
// before round 0), the solve's stream and the prefix of it the solve
// replays.
type residentView struct {
	r      *Resident
	tri    []float64
	s      *batchStream
	rounds [][]float64
}

// open checks a p-rank solve of opts on (x, ·) against the handle and
// returns its view. It returns nil — the solve runs as without a
// handle — for a nil handle or a solve that is not replayable (or
// invalid, left to newEngine to report), and an error when r was
// stamped under another (d, m, P).
func (r *Resident) open(x *sparse.CSC, p int, opts Options) (*residentView, error) {
	if r == nil {
		return nil, nil
	}
	o := opts.withDefaults()
	if o.Validate() != nil || !replayable(&o) {
		return nil, nil
	}
	id := residentID{d: x.Rows, m: x.Cols, p: p}
	key := streamKey{seed: o.Seed, mbar: sampleSize(o.B, x.Cols), k: o.K}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.stamp(id); err != nil {
		return nil, err
	}
	s := r.streams[key]
	if s == nil {
		s = &batchStream{}
		r.streams[key] = s
	}
	return &residentView{r: r, tri: r.tri, s: s, rounds: s.rounds[:len(s.rounds):len(s.rounds)]}, nil
}

// reside puts the engine on v before its run: the kept triple in
// place, billing nothing like a replayed round — without one, the run
// fills it before round 0 and rank 0 offers it to the holder — and
// stage C behind a replayer of the stream prefix. A nil v changes
// nothing.
func (e *engine) reside(v *residentView) {
	if v == nil {
		return
	}
	if v.tri != nil {
		e.gram.view(v.tri, e.d)
	}
	e.gram.to = v.r
	e.rp = &replayer{residentView: v, inner: e.exch, rank0: e.c.Rank() == 0,
		perRound: e.opts.K * e.opts.S, epoch: e.opts.EpochLen}
}

// rcsfista builds one rank's engine and runs it on v, the solve's view
// of its resident handle (nil: none).
func rcsfista(ctx context.Context, c dist.Comm, local LocalData, opts Options, v *residentView) (*Result, error) {
	e, err := newEngine(c, local, opts)
	if err != nil {
		return nil, err
	}
	e.reside(v)
	return e.run(ctx, e, e, !e.opts.ActiveSet)
}

// SolveDistributedStream is SolveDistributedContext on the resident
// state r of (x, y) at this world size. The solve reads r's kept
// triple, or fills it before round 0 as every solve does and keeps it
// in r if the budget has room, and replays and extends r's stream of
// its (seed, m̄, k): rounds the stream holds run no fill and no
// exchange and bill nothing, the rest run live, rank 0 appending them.
// The result equals SolveDistributedContext's bit for bit in W,
// FinalObj, GradMap, the counters, the stop and every trace objective,
// whatever r holds; Cost, ModelSeconds and trace timing count the work
// done, and Result.Replayed, Recorded and GramFilled say what the
// handle gave and took. A solve the engine does not replay (see
// replayable) ignores r; one whose (d, m, P) differs from the one r
// was stamped with errors before its first round. A nil r is
// SolveDistributedContext.
func SolveDistributedStream(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options, r *Resident) (*Result, error) {
	v, err := r.open(x, w.Size(), opts)
	if err != nil {
		return nil, err
	}
	return solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		return rcsfista(ctx, c, Partition(x, y, c.Size(), c.Rank()), opts, v)
	})
}
