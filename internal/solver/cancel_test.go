package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

func cancelOpts(p *data.Problem) Options {
	opts := Defaults()
	opts.Lambda = p.Lambda
	opts.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 3))
	opts.MaxIter = 100000
	opts.K = 2
	opts.S = 2
	return opts
}

// requireWellFormedPartial checks the partial-result contract: on
// cancellation the solve must still return a usable Result — full-size
// iterate, a trace with at least the initial checkpoint, finite
// objective.
func requireWellFormedPartial(t *testing.T, res *Result, d int) {
	t.Helper()
	if res == nil {
		t.Fatal("cancelled solve returned nil result")
	}
	if len(res.W) != d {
		t.Fatalf("partial W has %d coords, want %d", len(res.W), d)
	}
	if res.Trace == nil || res.Trace.Len() < 1 {
		t.Fatal("partial result lost its trace")
	}
	if math.IsNaN(res.FinalObj) || math.IsInf(res.FinalObj, 0) {
		t.Fatalf("partial FinalObj = %g", res.FinalObj)
	}
}

// TestCancelExpiredContext: a context that is already expired must stop
// the distributed solve at the first round boundary — before any
// update — on every rank, without leaking rank goroutines.
func TestCancelExpiredContext(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 10, M: 200, Density: 1, Lambda: 0.1, Seed: 51})
	opts := cancelOpts(p)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	w := dist.NewWorld(4, perf.Comet())
	res, err := SolveDistributedContext(ctx, w, p.X, p.Y, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	requireWellFormedPartial(t, res, p.X.Rows)
	if res.Iters != 0 {
		t.Fatalf("expired context still ran %d updates", res.Iters)
	}
	dist.VerifyNoGoroutineLeaks(t, baseline)
}

// TestCancelMidSolve: cancelling a long-running distributed solve from
// outside must stop all ranks promptly with a well-formed partial
// result and no leaked goroutines — for both the blocking and the
// pipelined round loop, over in-process channels and real sockets.
func TestCancelMidSolve(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 12, M: 300, Density: 1, Lambda: 0.1, Seed: 52})
	for _, backend := range []string{"chan", "tcp"} {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("%s/pipeline=%t", backend, pipeline)
			opts := cancelOpts(p)
			baseline := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			res, _, err := engineWorld(t, backend, 4, p, opts, nil, func(e *engine) (*Result, error) {
				return e.run(ctx, e, e, pipeline)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", name, err)
			}
			requireWellFormedPartial(t, res, p.X.Rows)
			if res.Iters >= opts.MaxIter {
				t.Fatalf("%s: cancellation did not shorten the run", name)
			}
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// rankRun is one rank's outcome of a solve.
type rankRun struct {
	res *Result
	err error
}

// solvePerRank runs the engine on the blocking or the pipelined round
// loop on every rank of a procs-rank world on backend, rank r under
// ctxOf(r), and returns each rank's outcome.
func solvePerRank(t *testing.T, backend string, procs int, p *data.Problem, o Options, pipelined bool,
	ctxOf func(rank int) context.Context) []rankRun {
	t.Helper()
	runs := make([]rankRun, procs)
	_, _, err := engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
		res, err := e.run(ctxOf(e.c.Rank()), e, e, pipelined)
		runs[e.c.Rank()] = rankRun{res, err}
		return res, err
	})
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	return runs
}

// lastRankExpires gives rank procs−1 alone a context that expires at
// its (n+1)-th poll, i.e. in round n+1; the other ranks never cancel.
func lastRankExpires(procs int, n int64) func(rank int) context.Context {
	return func(rank int) context.Context {
		if rank == procs-1 {
			return expireAfter(n, context.DeadlineExceeded)
		}
		return context.Background()
	}
}

// requireLastRankCancel checks the per-rank contract when only the last
// rank's context expired, in round n+1: every rank leaves at that
// round — the one whose trailer carried the flag — the expiring rank
// with its own DeadlineExceeded, the others with Canceled, each with a
// full-size iterate (rank 0, which keeps the trace, with a well-formed
// partial result).
func requireLastRankCancel(t *testing.T, name string, runs []rankRun, n, d int) {
	t.Helper()
	for r, run := range runs {
		want := context.Canceled
		if r == len(runs)-1 {
			want = context.DeadlineExceeded
		}
		if !errors.Is(run.err, want) {
			t.Fatalf("%s rank %d: err = %v, want %v", name, r, run.err, want)
		}
		if r == 0 {
			requireWellFormedPartial(t, run.res, d)
		} else if run.res == nil || len(run.res.W) != d {
			t.Fatalf("%s rank %d: no full-size partial iterate", name, r)
		}
		if run.res.Rounds != n+1 {
			t.Fatalf("%s rank %d: left at round %d, want %d, the round that carried the vote", name, r, run.res.Rounds, n+1)
		}
	}
}

// TestCancelOneRank: only rank P−1 observes its context expire. Its
// flag rides the next round's batch, so every rank leaves at that same
// round — blocking and pipelined, over chan and tcp — without a leaked
// goroutine.
func TestCancelOneRank(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 12, M: 300, Density: 1, Lambda: 0.1, Seed: 55})
	const procs, n = 4, 7
	for _, backend := range []string{"chan", "tcp"} {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("%s/pipeline=%t", backend, pipeline)
			o := cancelOpts(p)
			baseline := runtime.NumGoroutine()
			runs := solvePerRank(t, backend, procs, p, o, pipeline, lastRankExpires(procs, n))
			requireLastRankCancel(t, name, runs, n, p.X.Rows)
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// TestCancelVoteUnderTiers: at every compressed tier a lone rank's flag
// of 1 survives the quantized sum, even though the batch's last i8
// chunk holds values ≥ 1e6 whose scale would round a 1 to 0: the
// trailer opens a chunk of its own.
func TestCancelVoteUnderTiers(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 12, M: 300, Density: 1, Lambda: 0.1, Seed: 56})
	for i := range p.Y {
		p.Y[i] *= 1e8
	}
	// The precondition: the batch's last i8 chunk (the last slot's R) is
	// large.
	e, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), cancelOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, e.BatchLen())
	e.Fill(buf)
	if top := mat.NrmInf(buf[(len(buf)-1)/perf.I8ChunkLen*perf.I8ChunkLen:]); top < 1e6 {
		t.Fatalf("last i8 chunk of the batch peaks at %g, want ≥ 1e6", top)
	}
	const procs, n = 4, 5
	for _, tier := range []string{"f32", "i8", "auto"} {
		for _, backend := range []string{"chan", "tcp"} {
			name := fmt.Sprintf("%s/%s", tier, backend)
			o := cancelOpts(p)
			o.CompressTier = tier
			baseline := runtime.NumGoroutine()
			runs := solvePerRank(t, backend, procs, p, o, true, lastRankExpires(procs, n))
			requireLastRankCancel(t, name, runs, n, p.X.Rows)
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// roundCtx is a context whose Err reports DeadlineExceeded once the
// solve has counted at rounds: a cancellation tied to the solve's
// progress, not to the clock or to how often it is polled.
type roundCtx struct {
	context.Context
	rounds *int
	at     int
}

func (c roundCtx) Err() error {
	if *c.rounds >= c.at {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelDegradedForever: a FaultPlan delivers the first rounds and
// then drops every attempt of every round (a crash outage that never
// ends), so the solve degrades to the last good batch forever and no
// round carries a fresh vote. The standalone consensus such rounds fall
// back on must still land rank P−1's cancellation within one round.
func TestCancelDegradedForever(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 10, M: 200, Density: 1, Lambda: 0.1, Seed: 57})
	const procs, crashAt, at = 4, 3, 9
	for _, backend := range []string{"chan", "tcp"} {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("%s/pipeline=%t", backend, pipeline)
			o := cancelOpts(p)
			o.Faults = &dist.FaultPlan{Seed: 5, Crash: &dist.Crash{Rank: 1, Round: crashAt, Outage: 1 << 30}, MaxRetries: 1}
			baseline := runtime.NumGoroutine()
			res, _, err := engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
				var ctx context.Context = context.Background()
				if e.c.Rank() == procs-1 {
					ctx = roundCtx{Context: ctx, rounds: &e.rec.Rounds, at: at}
				}
				return e.run(ctx, e, e, pipeline)
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", name, err)
			}
			requireWellFormedPartial(t, res, p.X.Rows)
			if res.Rounds < at || res.Rounds > at+1 {
				t.Fatalf("%s: cancelled after round %d, left at round %d", name, at, res.Rounds)
			}
			if res.Faults.DegradedRounds != res.Rounds-crashAt {
				t.Fatalf("%s: %d degraded rounds of %d, want every round from %d on", name,
					res.Faults.DegradedRounds, res.Rounds, crashAt+1)
			}
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// TestCancelDuringBlackout is the ISSUE scenario: the network is in a
// total blackout (every attempt of every round drops), the solver is
// burning retries and degraded rounds, and the context expires. The
// solve must surface context.DeadlineExceeded within one round of the
// deadline instead of grinding through the blackout, with no leaked
// goroutines and a well-formed partial result.
func TestCancelDuringBlackout(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 10, M: 200, Density: 1, Lambda: 0.1, Seed: 53})
	opts := cancelOpts(p)
	opts.MaxIter = 100000
	opts.Faults = &dist.FaultPlan{DropProb: 1, Seed: 7, MaxRetries: 2} // nothing ever gets through
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	w := dist.NewWorld(4, perf.Comet())
	start := time.Now()
	res, err := SolveDistributedContext(ctx, w, p.X, p.Y, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// "Promptly": well under the time the full blackout run would take,
	// and within a generous one-round bound of the 30ms deadline.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	requireWellFormedPartial(t, res, p.X.Rows)
	// Every completed round was a blackout round: all skipped, none
	// processed.
	if res.Iters != 0 {
		t.Fatalf("blackout run still applied %d updates", res.Iters)
	}
	if res.Rounds > 0 && res.Faults.SkippedRounds == 0 {
		t.Fatalf("blackout rounds (%d) recorded no skips", res.Rounds)
	}
	dist.VerifyNoGoroutineLeaks(t, baseline)
}

// TestCancelSequentialSolvers: the sequential entry point, SolveTriple,
// accepts the same contract (no communicator, so no consensus — just
// the local check before its first iteration).
func TestCancelSequentialSolvers(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 8, M: 150, Density: 1, Lambda: 0.1, Seed: 54})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	tri := FillTriple(p.X, p.Y, 1, nil)
	res, err := SolveTriple(ctx, tri, perf.Comet(), Options{Lambda: p.Lambda, MaxIter: 100})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveTriple: err = %v", err)
	}
	requireWellFormedPartial(t, res, p.X.Rows)
}
