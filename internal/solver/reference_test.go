package solver

// Test-held reference implementations of the two engine configurations
// production does not run, and the helpers that drive them. The
// production engine runs packed symmetric slots with direct-form
// updates only; the dense-unpacked wire format (denseRef, here) and the
// literal Eq. 16-17 recurrences (deltaPass, delta_test.go) plug into
// the same engine.run / solvercore.Loop as stage implementations, so
// the equivalence tests compare like with like: same sampling, same
// exchanger, same stop policy, one stage swapped.

import (
	"context"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// denseRef is the dense-unpacked wire format: k slots of d^2 + d words,
// each the full row-major H_j followed by R_j, consumed through the
// dense operator. A slot's H_j is the packed Gram kernel's result
// expanded to both triangles — the bits a full-storage kernel leaves,
// which sparse's packed-versus-dense tests pin. Everything else —
// sampling, the update kernel, the post-update bookkeeping — is the
// engine's own.
type denseRef struct{ *engine }

func (r denseRef) BatchLen() int { return r.opts.K * (r.d*r.d + r.d) }

func (r denseRef) slot(batch []float64, j int) (*mat.Dense, []float64) {
	n := r.d * r.d
	slot := batch[j*(n+r.d) : (j+1)*(n+r.d)]
	return mat.DenseOf(r.d, r.d, slot[:n]), slot[n:]
}

func (r denseRef) Fill(buf []float64) perf.Cost {
	e := r.engine
	mat.Zero(buf)
	var fill perf.Cost
	for j := 0; j < e.opts.K; j++ {
		cols := e.local.LocalCols(e.sampler.AppendSample(nil, e.hIdx+j))
		h, rv := r.slot(buf, j)
		hp := mat.NewSymPacked(r.d)
		sparse.SampledGramPacked(e.local.X, hp, rv, e.local.Y, cols, 1/float64(e.mbar), &fill)
		copy(h.Data, expand(hp).Data)
	}
	e.hIdx += e.opts.K
	return fill
}

// expand writes a packed symmetric matrix out in full storage: the
// exact conversion the packed-versus-dense tests compare through.
func expand(a *mat.SymPacked) *mat.Dense {
	out := mat.NewDense(a.N, a.N)
	for i := 0; i < a.N; i++ {
		for jj, v := range a.RowTail(i) {
			out.Set(i, i+jj, v)
			out.Set(i+jj, i, v)
		}
	}
	return out
}

func (r denseRef) Process(shared []float64) bool {
	e := r.engine
	for j := 0; j < e.opts.K; j++ {
		h, rv := r.slot(shared, j)
		for s := 0; s < e.opts.S; s++ {
			e.update(h, rv)
			if e.afterUpdate() {
				return true
			}
		}
	}
	return false
}

// stages picks the stage A/B filler and the stage D pass a run plugs
// into engine.run.
type stages func(e *engine) (solvercore.BatchFiller, solvercore.InnerPass)

// denseStages swaps both wire-format-dependent stages for denseRef.
func denseStages(e *engine) (solvercore.BatchFiller, solvercore.InnerPass) {
	r := denseRef{e}
	return r, r
}

// deltaStages keeps the packed fill and swaps stage D for deltaPass.
func deltaStages(e *engine) (solvercore.BatchFiller, solvercore.InnerPass) {
	return e, newDeltaPass(e)
}

// runStages is RCSFISTAContext with the stages chosen by st.
func runStages(c dist.Comm, local LocalData, o Options, st stages) (*Result, error) {
	e, err := newEngine(c, local, o)
	if err != nil {
		return nil, err
	}
	fill, pass := st(e)
	return e.run(context.Background(), fill, pass, !e.opts.ActiveSet)
}

// selfSolveStages is selfSolve with the stages chosen by st.
func selfSolveStages(t *testing.T, p *data.Problem, o Options, st stages) *Result {
	t.Helper()
	res, err := runStages(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), o, st)
	if err != nil {
		t.Fatalf("runStages: %v", err)
	}
	return res
}

// worldSolveStages is SolveDistributed on a fresh procs-rank world with
// the stages chosen by st.
func worldSolveStages(t *testing.T, procs int, p *data.Problem, o Options, st stages) *Result {
	t.Helper()
	w := dist.NewWorld(procs, perf.Comet())
	res, err := solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		return runStages(c, Partition(p.X, p.Y, c.Size(), c.Rank()), o, st)
	})
	if err != nil {
		t.Fatalf("runStages on P=%d: %v", procs, err)
	}
	return res
}
