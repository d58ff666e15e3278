package solver

// Resident state: what one solve keeps for later solves of the same
// data on the same world size — the least-squares triple (G, r, c) of
// residentGram and the reduced batch stream (replay.go). Neither
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

// Resident is a solve's handle on the state kept across solves of one
// (data, P). A solve handed one reads the least-squares triple from
// round 0: Gram's kept triple, or one every rank fills before round 0
// and Gram keeps if its budget has room. Stream, when set, is replayed
// and extended. Either may be nil: a fresh Resident{} fills the triple
// and keeps nothing. Kept, freshly filled or not kept, the triple is
// the same bits, so the result is too.
type Resident struct {
	Gram   *Gram
	Stream *BatchStream
}

// Gram holds the least-squares triple of one (data, P): the packed G,
// then r, then c, as the fill's allreduce sums them. It is stamped with
// the (d, m, P) of the first solve that opens it and is kept once,
// immutable after, so concurrent solves read it without copies. The
// zero value is not usable; see NewGram.
type Gram struct {
	mu     sync.Mutex
	id     gramID
	tri    []float64
	budget *StreamBudget
}

// gramID is the identity a Gram is stamped with by the first solve
// that opens it. The zero value marks an unstamped holder.
type gramID struct{ d, m, p int }

// NewGram returns an empty holder whose triple draws on budget.
func NewGram(budget *StreamBudget) *Gram { return &Gram{budget: budget} }

// Bytes reports the bytes of the kept triple: 0 before one is kept.
func (g *Gram) Bytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return 8 * int64(len(g.tri))
}

// open stamps g with id and returns its kept triple, nil when none is
// kept yet; an error when g was stamped under another identity.
// Nil-safe: no holder keeps nothing.
func (g *Gram) open(id gramID) ([]float64, error) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.id == (gramID{}) {
		g.id = id
	} else if g.id != id {
		return nil, fmt.Errorf("solver: resident Gram stamped %+v, solve needs %+v", g.id, id)
	}
	return g.tri, nil
}

// keep stores a copy of a filled triple unless one is kept already or
// the budget lacks room. Every filler's triple is the same bits, so
// racing first solves are harmless: the first keeps, the rest drop
// theirs. Nil-safe.
func (g *Gram) keep(tri []float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tri == nil && g.budget.reserve(8*int64(len(tri))) {
		g.tri = slices.Clone(tri)
	}
}

// residentView is one solve's reading of its handle, taken once before
// the world runs so every rank takes the same branches: the kept
// triple (nil: every rank fills one before round 0), the holder a fill
// is offered to, and the stream prefix the solve replays.
type residentView struct {
	gram *Gram
	tri  []float64
	pre  *streamPrefix
}

// open checks a p-rank solve of opts on (x, ·) against the handle and
// returns its view. It returns nil — the solve runs as without a
// handle, filling the triple once gramReady holds — for a nil handle
// or a solve that is not replayable (or invalid, left to newEngine to
// report), and an error when the Gram or the stream was stamped under
// another identity.
func (r *Resident) open(x *sparse.CSC, p int, opts Options) (*residentView, error) {
	if r == nil {
		return nil, nil
	}
	o := opts.withDefaults()
	if o.Validate() != nil || !replayable(&o) {
		return nil, nil
	}
	tri, err := r.Gram.open(gramID{d: x.Rows, m: x.Cols, p: p})
	if err != nil {
		return nil, err
	}
	pre, err := r.Stream.open(streamID{d: x.Rows, m: x.Cols, p: p, mbar: sampleSize(o.B, x.Cols), k: o.K, seed: o.Seed})
	if err != nil {
		return nil, err
	}
	return &residentView{gram: r.Gram, tri: tri, pre: pre}, nil
}

// reside puts the engine on v before round 0: the triple in place —
// the kept one, billing nothing like a replayed round, or one every
// rank fills now and bills, rank 0 offering it to the holder — and
// stage C behind a replayer of the stream prefix. A replayable solve
// has the Gram path on, so gramReady holds from here on. A nil v
// changes nothing.
func (e *engine) reside(v *residentView) {
	if v == nil {
		return
	}
	g := &e.gram
	if v.tri != nil {
		g.view(v.tri, e.d)
	} else {
		tri := e.fillGram()
		e.c.Cost().Add(g.bill)
		if e.c.Rank() == 0 {
			v.gram.keep(tri)
		}
	}
	g.billed = true
	if v.pre != nil {
		e.rp = &replayer{streamPrefix: v.pre, inner: e.exch, rank0: e.c.Rank() == 0}
	}
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
// state r of (x, y) at this world size. The solve reads the
// least-squares triple from round 0 (r.Gram's, or filled before round
// 0 and kept there if the budget has room), and replays and extends
// r.Stream: rounds the stream holds run no fill and no exchange and
// bill nothing, the rest run live, rank 0 appending them. The result
// equals the same solve handed a fresh Resident{} bit for bit in W,
// the objective, the counters, the stop and every trace objective,
// whatever r holds; Cost, ModelSeconds and trace timing count the work
// done, and Result.Replayed, Recorded and GramFilled say what the
// handle gave and took. Every stop, FinalObj and GradMap remain
// data-pass values, so a handle moves only interior objectives and W,
// at the rounding level, against the solve without one. A solve the
// engine does not replay (see replayable) ignores r; one whose identity
// differs from the one r's Gram or stream was stamped with errors
// before its first round. A nil r is SolveDistributedContext.
func SolveDistributedStream(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options, r *Resident) (*Result, error) {
	v, err := r.open(x, w.Size(), opts)
	if err != nil {
		return nil, err
	}
	return solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		return rcsfista(ctx, c, Partition(x, y, c.Size(), c.Rank()), opts, v)
	})
}
