package solver

// Resident state: what one solve keeps for later solves of the same
// data on the same world size — the least-squares triple (G, r, c) of
// residentGram, which depends on neither λ, the regularizer, w nor a
// tolerance.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// ResidentBudget caps the bytes a family of Residents holds together. A
// triple that does not fit is not kept.
type ResidentBudget struct {
	limit int64
	used  atomic.Int64
}

// NewResidentBudget returns a budget of limit bytes.
func NewResidentBudget(limit int64) *ResidentBudget { return &ResidentBudget{limit: limit} }

// DataBytes is the in-memory size of a problem's X and y: the budget
// under which its resident state never costs more memory than the data
// itself.
func DataBytes(x *sparse.CSC, y []float64) int64 {
	return 8 * int64(len(x.ColPtr)+len(x.RowIdx)+len(x.Val)+len(y))
}

// Used reports the bytes the budget's holders keep.
func (b *ResidentBudget) Used() int64 { return b.used.Load() }

// reserve takes n bytes from the budget, or reports false and takes
// nothing when they do not fit.
func (b *ResidentBudget) reserve(n int64) bool {
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

// holdsTriple is the one rule for which solves hold the least-squares
// triple before round 0, and so share a resident handle: none under
// ActiveSet (G may outgrow its |A|-sized slots) or a CompressTier (the
// snapshot gradient crosses the wire quantized; the auto ratchet reads
// the objective) but auto on one rank, which never leaves f64.
func holdsTriple(o *Options, p int) bool {
	t, err := parseTierConfig(o.CompressTier)
	return err == nil && !o.ActiveSet && (!t.on || t.auto && p == 1)
}

// Resident holds the least-squares triple of one (data, P) — the packed
// G, then r, then c, as the fill's allreduce sums them — kept across
// solves. It is stamped with the (d, m, P) of the first solve that
// reads it; a solve of another identity errors before it runs. The
// triple is kept once, immutable after, so concurrent solves read it
// without copies; a triple the budget has no room for is not kept.
// SolveDistributedResident and SolveTriple read, fill and stamp it
// alike. The zero value is not usable; see NewResident.
type Resident struct {
	mu     sync.Mutex
	id     residentID
	tri    []float64
	budget *ResidentBudget
}

// residentID is the identity a Resident is stamped with by the first
// solve that reads it. The zero value marks an unstamped holder.
type residentID struct{ d, m, p int }

// NewResident returns an empty holder drawing on budget.
func NewResident(budget *ResidentBudget) *Resident { return &Resident{budget: budget} }

// Bytes reports the bytes r's kept triple holds.
func (r *Resident) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return 8 * int64(len(r.tri))
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

// held stamps r with the (d, m, p) of a p-rank solve on x, or checks it
// against r's stamp, and returns r's kept triple, nil when it holds
// none. A solve reads it once, before any rank runs, so every rank
// takes the same branch. A nil r holds none.
func (r *Resident) held(x *sparse.CSC, p int) ([]float64, error) {
	if r == nil {
		return nil, nil
	}
	id := residentID{d: x.Rows, m: x.Cols, p: p}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.id == (residentID{}) {
		r.id = id
	} else if r.id != id {
		return nil, fmt.Errorf("solver: resident state stamped %+v, solve needs %+v", r.id, id)
	}
	return r.tri, nil
}

// rcsfista builds one rank's engine and runs it on the resident holder
// r and its kept triple tri: tri in place, billed nothing, or — when
// tri is nil — the run fills the triple before round 0 and rank 0
// offers it to r. A nil r keeps nothing.
func rcsfista(ctx context.Context, c dist.Comm, local LocalData, opts Options, r *Resident, tri []float64) (*Result, error) {
	e, err := newEngine(c, local, opts)
	if err != nil {
		return nil, err
	}
	if tri != nil {
		e.gram.view(tri, e.d)
	}
	e.gram.to = r
	return e.run(ctx, e, e, !e.opts.ActiveSet)
}

// SolveDistributedResident is SolveDistributedContext on the resident
// triple r of (x, y) at this world size. The solve reads r's kept
// triple, or fills it before round 0 as every solve does and keeps it
// in r if the budget has room. The result equals
// SolveDistributedContext's bit for bit in W, FinalObj, GradMap, the
// counters, the stop and every trace objective, whatever r holds; Cost,
// ModelSeconds and trace timing count the work done, and
// Result.GramFilled says whether the solve filled the triple. A solve
// that holds no triple (holdsTriple), or one that is invalid, left to
// the engine to report, ignores r; one whose (d, m, P) differs from the
// one r was stamped with errors before its first round. A nil r is
// SolveDistributedContext.
func SolveDistributedResident(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options, r *Resident) (*Result, error) {
	if o := opts.withDefaults(); o.Validate() != nil || !holdsTriple(&o, w.Size()) {
		r = nil
	}
	tri, err := r.held(x, w.Size())
	if err != nil {
		return nil, err
	}
	return solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		return rcsfista(ctx, c, Partition(x, y, c.Size(), c.Rank()), opts, r, tri)
	})
}
