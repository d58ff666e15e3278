package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// newResident returns a handle with room for every test solve.
func newResident() *Resident { return NewResident(NewStreamBudget(1 << 40)) }

// heldRounds is the number of rounds r's streams hold.
func heldRounds(r *Resident) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.streams {
		n += len(s.rounds)
	}
	return n
}

// streamSolve solves o on a procs-rank world over backend on the
// resident handle r, on the blocking or the pipelined loop as asked;
// ctxOf, when set, gives each rank its context. It returns the engines
// too. A nil r is the stream-less reference every replay is held to:
// it fills the triple before round 0 and keeps nothing.
func streamSolve(t *testing.T, backend string, procs int, p *data.Problem, o Options, r *Resident,
	pipelined bool, ctxOf func(e *engine) context.Context) (*Result, []*engine, error) {
	t.Helper()
	v, err := r.open(p.X, procs, o)
	if err != nil {
		return nil, nil, err
	}
	return engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
		ctx := context.Background()
		if ctxOf != nil {
			ctx = ctxOf(e)
		}
		e.reside(v)
		return e.run(ctx, e, e, pipelined)
	})
}

// requireReplayed fails unless a stream-taking solve equals the
// stream-less one bit for bit in everything but work: W, FinalObj,
// Iters, Rounds, Converged, GradMap and every trace point's objective.
func requireReplayed(t *testing.T, label string, got, want *Result) {
	t.Helper()
	requireBitIdentical(t, label, got, want)
	if got.Converged != want.Converged || math.Float64bits(got.GradMap) != math.Float64bits(want.GradMap) {
		t.Fatalf("%s: converged/GradMap %t %g vs %t %g", label, got.Converged, got.GradMap, want.Converged, want.GradMap)
	}
}

// TestReplayEquivalence runs one handle through a sequence of solves
// that replay its stream fully, partly, and extend it — MaxIter,
// GradMapTol and Tol stops, and l1, elastic-net and group fits sharing
// the stream and the triple the first of them kept — and holds each to
// the handle-less solve bit for bit, at
// P ∈ {1, 2, 4} on chan and P = 2 over tcp, on both round loops.
// Replayed rounds and a kept triple bill nothing, so a replayed solve's
// Cost is below the fresh one's.
func TestReplayEquivalence(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 4000)
	groups, err := prox.ParseGroups("size:4", p.X.Rows)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		edit func(o *Options)
	}{
		{"maxiter", func(o *Options) { o.K, o.MaxIter, o.GradMapTol = 2, 40, 0 }},
		{"maxiter/again", func(o *Options) { o.K, o.MaxIter, o.GradMapTol = 2, 40, 0 }},
		{"gradmap", func(o *Options) { o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000 }},
		{"tol", func(o *Options) { o.K, o.EvalEvery, o.FStar, o.Tol, o.MaxIter = 2, 5, fstar, 1e-3, 4000 }},
		{"en", func(o *Options) {
			o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000
			o.Reg = prox.ElasticNet{Lambda1: p.Lambda, Lambda2: 0.05}
		}},
		{"group/s2", func(o *Options) {
			o.K, o.S, o.GradMapTol, o.MaxIter = 2, 2, 1e-4, 6000
			o.Reg = prox.GroupL2{Lambda: p.Lambda, Groups: groups}
		}},
	}
	for _, leg := range []struct {
		backend string
		procs   int
	}{{"chan", 1}, {"chan", 2}, {"chan", 4}, {"tcp", 2}} {
		for _, pipelined := range []bool{false, true} {
			r := newResident()
			var partial, extended bool
			for i, st := range steps {
				name := fmt.Sprintf("%s/p%d/pipe=%t/%s", leg.backend, leg.procs, pipelined, st.name)
				o := gramOpts(p)
				st.edit(&o)
				want, _, err := streamSolve(t, leg.backend, leg.procs, p, o, nil, pipelined, nil)
				if err != nil {
					t.Fatal(err)
				}
				held := heldRounds(r)
				got, _, err := streamSolve(t, leg.backend, leg.procs, p, o, r, pipelined, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requireReplayed(t, name, got, want)
				if !want.GramFilled || got.GramFilled != (i == 0) {
					t.Fatalf("%s: filled the triple %t (reference %t); only the first solve on a handle fills", name, got.GramFilled, want.GramFilled)
				}
				if wantRep := min(held, got.Rounds); got.Replayed != wantRep || got.Recorded != got.Rounds-wantRep {
					t.Fatalf("%s: replayed %d recorded %d of %d rounds from a %d-round stream",
						name, got.Replayed, got.Recorded, got.Rounds, held)
				}
				if n := heldRounds(r); n != max(held, got.Rounds) {
					t.Fatalf("%s: stream holds %d rounds, want %d", name, n, max(held, got.Rounds))
				}
				if got.Replayed > 0 && got.Cost.Flops >= want.Cost.Flops {
					t.Fatalf("%s: a replayed solve billed %d flops, the fresh one %d", name, got.Cost.Flops, want.Cost.Flops)
				}
				partial = partial || got.Replayed > 0 && got.Recorded > 0
				extended = extended || held > 0 && got.Recorded > 0
			}
			if !partial || !extended {
				t.Fatalf("%s/p%d: no step replayed a partial prefix and extended the stream", leg.backend, leg.procs)
			}
		}
	}
}

// TestReplayProduction drives SolveDistributedStream, the engine's own
// loop choice: a second solve replays every round of the first and
// reads the triple it kept.
func TestReplayProduction(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000
	want, err := SolveDistributedContext(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	r := newResident()
	for i := 0; i < 2; i++ {
		got, err := SolveDistributedStream(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, o, r)
		if err != nil {
			t.Fatal(err)
		}
		requireReplayed(t, fmt.Sprintf("solve %d", i), got, want)
		if got.Replayed != i*want.Rounds || got.GramFilled != (i == 0) {
			t.Fatalf("solve %d replayed %d of %d rounds, filled the triple %t", i, got.Replayed, want.Rounds, got.GramFilled)
		}
	}
}

// epochRounds returns the 1-based replayed rounds, from first through
// last, that close a variance-reduction epoch of o — those whose
// updates carry ⌊r·k·S/EpochLen⌋ past a multiple — the rounds that
// take the standalone cancellation consensus.
func epochRounds(o Options, first, last int) []int {
	o = o.withDefaults()
	kS, n := o.K*o.S, o.EpochLen
	var rs []int
	for r := first; r <= last; r++ {
		if r*kS/n > (r-1)*kS/n {
			rs = append(rs, r)
		}
	}
	return rs
}

// TestReplayCancel expires rank P−1's context at round 9, in the
// middle of a replayed prefix. Replayed rounds synchronize only where
// their updates close a variance-reduction epoch, so every rank stops
// at the first epoch-closing round ≥ 9 — k = 2, S = 1, EpochLen = 8:
// round 12 — with a well-formed partial, on both loops, and no
// goroutine is left behind.
func TestReplayCancel(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	const procs, at = 4, 9
	o := gramOpts(p)
	o.K, o.MaxIter, o.GradMapTol = 2, 60, 0
	s := newResident()
	if _, _, err := streamSolve(t, "chan", procs, p, o, s, true, nil); err != nil {
		t.Fatal(err)
	}
	prefix := heldRounds(s)
	votes := epochRounds(o, at, prefix)
	if len(votes) == 0 || votes[0] == at {
		t.Fatalf("no epoch-closing round in (%d, %d]: votes %v", at, prefix, votes)
	}
	stop := votes[0]
	o.MaxIter = 100000
	for _, pipelined := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		res, engines, err := streamSolve(t, "chan", procs, p, o, s, pipelined, func(e *engine) context.Context {
			if e.c.Rank() == procs-1 {
				return roundCtx{Context: context.Background(), rounds: &e.rec.Rounds, at: at}
			}
			return context.Background()
		})
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("pipelined=%t: err = %v", pipelined, err)
		}
		requireWellFormedPartial(t, res, p.X.Rows)
		if res.Rounds != stop || res.Replayed != stop || res.Recorded != 0 {
			t.Fatalf("pipelined=%t: stopped at round %d, replayed %d, recorded %d; want round %d, all replayed",
				pipelined, res.Rounds, res.Replayed, res.Recorded, stop)
		}
		for _, e := range engines {
			if e.rec.Rounds != res.Rounds || e.rec.Iter != res.Iters {
				t.Fatalf("pipelined=%t: rank %d left at round %d iter %d, rank 0 at %d/%d",
					pipelined, e.c.Rank(), e.rec.Rounds, e.rec.Iter, res.Rounds, res.Iters)
			}
		}
		dist.VerifyNoGoroutineLeaks(t, baseline)
	}
}

// TestReplayConsensusCount counts what a fully replayed solve sends: of
// its R rounds only the ⌊R·k·S/EpochLen⌋ that close a variance-reduction
// epoch take the standalone OpMax consensus (k·S ≤ EpochLen here, so
// no round closes two epochs), where a consensus on every replayed
// round makes R. Both equal the stream-less solve bit for bit, and the
// consensus, control like the trailer, leaves Cost as it was. Chan and
// tcp at P = 2, both loops, an epoch k·S divides and one it does not.
func TestReplayConsensusCount(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 2
	for _, shape := range []struct{ k, s, epoch int }{{2, 2, 12}, {2, 1, 5}} {
		o := gramOpts(p)
		o.K, o.S, o.EpochLen, o.MaxIter, o.GradMapTol = shape.k, shape.s, shape.epoch, 120, 0
		for _, backend := range []string{"chan", "tcp"} {
			for _, pipelined := range []bool{false, true} {
				name := fmt.Sprintf("k%d/s%d/n%d/%s/pipe=%t", shape.k, shape.s, shape.epoch, backend, pipelined)
				want, _, err := streamSolve(t, backend, procs, p, o, nil, pipelined, nil)
				if err != nil {
					t.Fatal(err)
				}
				r := newResident()
				if _, _, err := streamSolve(t, backend, procs, p, o, r, pipelined, nil); err != nil {
					t.Fatal(err)
				}
				rounds := want.Rounds
				consensus := rounds * shape.k * shape.s / shape.epoch
				if n := len(epochRounds(o, 1, rounds)); n != consensus {
					t.Fatalf("%s: %d epoch-closing rounds of %d, want ⌊R·k·S/EpochLen⌋ = %d", name, n, rounds, consensus)
				}
				var costs [2]perf.Cost
				for i, everyRound := range []bool{false, true} {
					v, err := r.open(p.X, procs, o)
					if err != nil {
						t.Fatal(err)
					}
					counters := make([]*CallCounter, procs)
					wrap := func(c dist.Comm) dist.Comm {
						cc := &CallCounter{Comm: c}
						counters[c.Rank()] = cc
						return cc
					}
					got, _, err := engineWorld(t, backend, procs, p, o, wrap, func(e *engine) (*Result, error) {
						e.reside(v)
						if everyRound {
							e.rp.perRound, e.rp.epoch = 1, 1
						}
						return e.run(context.Background(), e, e, pipelined)
					})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/everyRound=%t", name, everyRound)
					requireReplayed(t, label, got, want)
					if got.Replayed != rounds {
						t.Fatalf("%s: replayed %d of %d rounds", label, got.Replayed, rounds)
					}
					wantN := consensus
					if everyRound {
						wantN = rounds
					}
					for rank, cc := range counters {
						if n := cc.Count("allreduce/max", 1); n != wantN {
							t.Errorf("%s rank %d: %d standalone consensus allreduces, want %d", label, rank, n, wantN)
						}
					}
					costs[i] = got.Cost
				}
				if costs[0] != costs[1] {
					t.Fatalf("%s: Cost %+v with the epoch consensus, %+v with one every round", name, costs[0], costs[1])
				}
			}
		}
	}
}

// TestReplayIdentity: a Resident is stamped with the (d, m, P) of the
// first solve that opens it, and a solve of any other errors before a
// world runs; the seed, b and k pick another of its streams — nothing
// to replay, the kept triple read — while λ, the regularizer, S, the
// epoch and the tolerances share the stream too.
func TestReplayIdentity(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.MaxIter = 2, 20
	r := newResident()
	solve := func(procs int, prob *data.Problem, o Options) (*Result, error) {
		return SolveDistributedStream(context.Background(), dist.NewWorld(procs, perf.Comet()), prob.X, prob.Y, o, r)
	}
	if _, err := solve(2, p, o); err != nil {
		t.Fatal(err)
	}
	other, err := data.LoadWith("covtype", 240, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, procs := range map[string]int{"procs": 4, "d": 2} {
		prob := p
		if name == "d" {
			prob = other
		}
		if res, err := solve(procs, prob, o); err == nil || res != nil {
			t.Fatalf("%s: a mismatching solve ran: res %v err %v", name, res, err)
		}
	}
	for name, edit := range map[string]func(o *Options){
		"seed": func(o *Options) { o.Seed++ },
		"k":    func(o *Options) { o.K = 1 },
		"b":    func(o *Options) { o.B = 0.5 },
	} {
		oc := o
		edit(&oc)
		res, err := solve(2, p, oc)
		if err != nil || res.Replayed != 0 || res.Recorded != res.Rounds || res.GramFilled {
			t.Fatalf("%s: err %v, replayed %d, recorded %d of %d rounds, filled %t; want a new stream on the kept triple",
				name, err, res.Replayed, res.Recorded, res.Rounds, res.GramFilled)
		}
	}
	o.Lambda, o.S, o.EpochLen, o.GradMapTol = 2*o.Lambda, 3, 12, 1e-3
	o.Reg = prox.ElasticNet{Lambda1: o.Lambda, Lambda2: 0.1}
	res, err := solve(2, p, o)
	if err != nil || res.Replayed == 0 {
		t.Fatalf("a solve of the same identity did not replay: %v, %+v", err, res)
	}
}

// TestReplayIneligible: a screened, a compressed (f32, i8, auto) and a
// fault-injected solve neither read nor write a resident handle — not
// its streams, not its triple, not even its stamp — and equal their
// handle-less solves in everything, Cost included.
func TestReplayIneligible(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := gramOpts(p)
	base.K, base.MaxIter, base.GradMapTol = 2, 40, 0
	recorded := newResident()
	if _, err := SolveDistributedStream(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, base, recorded); err != nil {
		t.Fatal(err)
	}
	held, kept := recorded.Bytes()
	for name, edit := range map[string]func(o *Options){
		"activeset": func(o *Options) { o.ActiveSet = true },
		"f32":       func(o *Options) { o.CompressTier = "f32" },
		"i8":        func(o *Options) { o.CompressTier = "i8" },
		"auto":      func(o *Options) { o.CompressTier = "auto" },
		"faults": func(o *Options) {
			o.Faults = &dist.FaultPlan{Seed: 3, Schedule: []dist.ScheduledFault{{Round: 2, Kind: dist.FaultDrop}}}
		},
	} {
		o := base
		edit(&o)
		want, err := SolveDistributed(dist.NewWorld(2, perf.Comet()), p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newResident()
		for _, r := range []*Resident{recorded, fresh} {
			got, err := SolveDistributedStream(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, o, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameResult(t, name, got, want)
			if got.Replayed != 0 || got.Recorded != 0 || got.GramFilled != want.GramFilled {
				t.Fatalf("%s: replayed %d, recorded %d, filled the triple %t (handle-less %t)",
					name, got.Replayed, got.Recorded, got.GramFilled, want.GramFilled)
			}
		}
		if s, g := recorded.Bytes(); s != held || g != kept {
			t.Fatalf("%s: the recorded handle moved: %d stream and %d triple bytes, held %d and %d", name, s, g, held, kept)
		}
		if s, g := fresh.Bytes(); s != 0 || g != 0 || len(fresh.streams) != 0 || fresh.id != (residentID{}) {
			t.Fatalf("%s: the fresh handle moved: %d stream and %d triple bytes, %d streams, stamp %+v",
				name, s, g, len(fresh.streams), fresh.id)
		}
	}
}
