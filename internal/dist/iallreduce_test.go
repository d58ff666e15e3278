package dist

import (
	"errors"
	"fmt"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestIAllreduceSharedMatchesBlocking pins the nonblocking collective's
// contract: same result bits and same charged cost as AllreduceShared,
// at every world size.
func TestIAllreduceSharedMatchesBlocking(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		local := func(rank int) []float64 {
			return []float64{0.1 * float64(rank+1), 1e-17, float64(rank) * 1e16, -3}
		}

		blocking := make([][]float64, p)
		wb := NewWorld(p, unitMachine())
		if err := wb.Run(func(c Comm) error {
			blocking[c.Rank()] = c.AllreduceShared(local(c.Rank()))
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		nonblocking := make([][]float64, p)
		wn := NewWorld(p, unitMachine())
		if err := wn.Run(func(c Comm) error {
			req := c.IAllreduceShared(local(c.Rank()))
			nonblocking[c.Rank()] = req.Wait()
			// Wait is idempotent: same slice, no double charge.
			if &req.Wait()[0] != &nonblocking[c.Rank()][0] {
				return errors.New("second Wait returned a different slice")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		for r := 0; r < p; r++ {
			for i := range blocking[r] {
				if blocking[r][i] != nonblocking[r][i] {
					t.Fatalf("P=%d rank %d word %d: blocking %v vs nonblocking %v",
						p, r, i, blocking[r][i], nonblocking[r][i])
				}
			}
			if wb.RankCost(r) != wn.RankCost(r) {
				t.Fatalf("P=%d rank %d cost: blocking %v vs nonblocking %v",
					p, r, wb.RankCost(r), wn.RankCost(r))
			}
			// And both match the published closed-form AllreduceCostTier at f64.
			if want := AllreduceCostTier(p, len(blocking[r]), TierF64); wn.RankCost(r) != want {
				t.Fatalf("P=%d rank %d: charged %v, AllreduceCostTier says %v",
					p, r, wn.RankCost(r), want)
			}
		}
	}
}

// TestIAllreduceSharedOverlapsCompute drives the intended use: post,
// compute locally while the collective is in flight, then Wait.
// Several requests may be in flight at once; they resolve by per-rank
// post order regardless of Wait interleaving with local work.
func TestIAllreduceSharedMultipleInFlight(t *testing.T) {
	const p = 4
	const rounds = 3
	w := newChanWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		reqs := make([]*Request, rounds)
		locals := make([][]float64, rounds)
		for i := 0; i < rounds; i++ {
			locals[i] = []float64{float64(c.Rank()), float64(i)}
			reqs[i] = c.IAllreduceShared(locals[i])
		}
		// Local compute while all three are in flight.
		acc := 0.0
		for i := 0; i < 100; i++ {
			acc += float64(i)
		}
		_ = acc
		for i := 0; i < rounds; i++ {
			res := reqs[i].Wait()
			wantSum := float64(p*(p-1)) / 2
			if res[0] != wantSum || res[1] != float64(i*p) {
				return fmt.Errorf("round %d: got %v", i, res)
			}
			// The posted buffer must be untouched.
			if locals[i][0] != float64(c.Rank()) {
				return errors.New("local buffer modified")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pinnedAfterRun(w); err != nil {
		t.Fatal(err)
	}
}

// pinnedAfterRun reports what a finished Run left registered on w — a
// contribution or the shared result slice, each possibly a k-slot
// Hessian batch — whether the Run succeeded or failed.
func pinnedAfterRun(w *chanWorld) error {
	for r, s := range w.contrib {
		if s != nil {
			return fmt.Errorf("contrib[%d] still pinned after Run", r)
		}
	}
	if w.result != nil {
		return errors.New("shared allreduce result still pinned after Run")
	}
	return nil
}

// TestUnwaitedPostDoesNotLeakIntoNextRun: a shared allreduce posted and
// never waited in one Run must leave nothing behind for the next Run's
// collectives to be matched up with — each Run starts from a clean
// world on every backend.
func TestUnwaitedPostDoesNotLeakIntoNextRun(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const p = 2
		w := mustWorld(t, backend, p)
		if err := w.Run(func(c Comm) error {
			c.IAllreduceShared([]float64{1})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c Comm) error {
			if got := c.AllreduceShared([]float64{10})[0]; got != 10*p {
				return fmt.Errorf("rank %d: sum = %g, want %d", c.Rank(), got, 10*p)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIAllreduceSharedAbortReleasesWaiters: a rank failing while others
// are parked in Wait must release them instead of deadlocking, exactly
// like the blocking collectives.
func TestIAllreduceSharedAbortReleasesWaiters(t *testing.T) {
	const p = 4
	w := NewWorld(p, unitMachine())
	bang := errors.New("bang")
	err := w.Run(func(c Comm) error {
		if c.Rank() == 2 {
			return bang // never posts: the round can't complete
		}
		req := c.IAllreduceShared([]float64{1})
		req.Wait()
		return errors.New("Wait returned despite missing rank")
	})
	if !errors.Is(err, bang) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

// TestIAllreduceSharedLengthMismatch: mismatched payload lengths are a
// programming error and must surface as a Run error, not a hang.
func TestIAllreduceSharedLengthMismatch(t *testing.T) {
	const p = 3
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		req := c.IAllreduceShared(make([]float64, 2+c.Rank()%2))
		req.Wait()
		return nil
	})
	if err == nil {
		t.Fatal("length mismatch went undetected")
	}
}

// TestIAllreduceSharedSelfComm: the single-rank communicator resolves at
// post time with a copy and zero cost.
func TestIAllreduceSharedSelfComm(t *testing.T) {
	c := NewSelfComm(unitMachine())
	local := []float64{3, 4}
	res := c.IAllreduceShared(local).Wait()
	if res[0] != 3 || res[1] != 4 {
		t.Fatalf("got %v", res)
	}
	res[0] = 99
	if local[0] != 3 {
		t.Fatal("result aliases the local buffer")
	}
	if *c.Cost() != (perf.Cost{}) {
		t.Fatalf("SelfComm charged %v for a local collective", *c.Cost())
	}
}

// TestFailedRunReleasesCollectiveState is the regression test for the
// abort leak: a failed Run used to re-arm the barrier and clear p2p but
// left contrib/shared/lens populated, pinning the last k*d^2-word batch
// of every rank until the World itself was collected.
func TestFailedRunReleasesCollectiveState(t *testing.T) {
	const p = 4
	w := newChanWorld(p, unitMachine())
	bang := errors.New("bang")
	err := w.Run(func(c Comm) error {
		// Successful collectives register contributions and a shared
		// result; a posted-but-unwaited allreduce must register nothing.
		buf := make([]float64, 1024)
		c.Allreduce(buf, OpSum)
		c.AllreduceShared(buf)
		c.Allgather(buf[:c.Rank()+1])
		c.IAllreduceShared(buf)
		c.Barrier()
		if c.Rank() == 1 {
			return bang
		}
		// Park the surviving ranks so the abort has waiters to release.
		c.Barrier()
		return nil
	})
	if !errors.Is(err, bang) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if err := pinnedAfterRun(w); err != nil {
		t.Fatal(err)
	}

	// The world must stay usable for a subsequent clean Run.
	if err := w.Run(func(c Comm) error {
		res := c.AllreduceShared([]float64{1})
		if res[0] != p {
			return fmt.Errorf("sum = %g", res[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := pinnedAfterRun(w); err != nil {
		t.Fatal(err)
	}
}
