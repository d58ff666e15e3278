package dist

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

func unitMachine() perf.Machine {
	return perf.Machine{Name: "unit", Alpha: 1, Beta: 1, Gamma: 1}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		w := NewWorld(p, unitMachine())
		err := w.Run(func(c Comm) error {
			buf := []float64{float64(c.Rank()), 1}
			c.Allreduce(buf, OpSum)
			wantSum := float64(p*(p-1)) / 2
			if buf[0] != wantSum || buf[1] != float64(p) {
				return fmt.Errorf("rank %d: got %v", c.Rank(), buf)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	w := NewWorld(5, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := []float64{float64(c.Rank())}
		c.Allreduce(buf, OpMax)
		if buf[0] != 4 {
			return fmt.Errorf("max = %g", buf[0])
		}
		buf[0] = float64(c.Rank())
		c.Allreduce(buf, OpMin)
		if buf[0] != 0 {
			return fmt.Errorf("min = %g", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// The reduction must be bit-for-bit reproducible across runs: sums
	// are computed in rank order by one reducer.
	vals := []float64{0.1, 0.2, 0.3, 1e-17, -0.1, 0.7, 1e17, -1e17}
	var first []float64
	for run := 0; run < 5; run++ {
		w := NewWorld(len(vals), unitMachine())
		out := make([]float64, len(vals))
		err := w.Run(func(c Comm) error {
			buf := []float64{vals[c.Rank()]}
			c.Allreduce(buf, OpSum)
			out[c.Rank()] = buf[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < len(out); r++ {
			if out[r] != out[0] {
				t.Fatal("ranks disagree on the reduced value")
			}
		}
		if first == nil {
			first = append([]float64(nil), out...)
		} else if out[0] != first[0] {
			t.Fatal("reduction not reproducible across runs")
		}
	}
}

func TestAllreduceShared(t *testing.T) {
	const p = 6
	w := NewWorld(p, unitMachine())
	ptrs := make([][]float64, p)
	err := w.Run(func(c Comm) error {
		local := []float64{1, float64(c.Rank())}
		res := c.AllreduceShared(local)
		if res[0] != p {
			return fmt.Errorf("sum = %g", res[0])
		}
		ptrs[c.Rank()] = res
		// The local buffer must be untouched.
		if local[0] != 1 {
			return errors.New("local buffer modified")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if &ptrs[r][0] != &ptrs[0][0] {
			t.Fatal("AllreduceShared did not share one buffer")
		}
	}
}

func TestAllreduceSharedFreshPerCall(t *testing.T) {
	w := NewWorld(2, unitMachine())
	err := w.Run(func(c Comm) error {
		a := c.AllreduceShared([]float64{1})
		b := c.AllreduceShared([]float64{2})
		if &a[0] == &b[0] {
			return errors.New("shared buffers aliased across calls")
		}
		if a[0] != 2 || b[0] != 4 {
			return fmt.Errorf("wrong sums %g %g", a[0], b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(4, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := make([]float64, 3)
		if c.Rank() == 2 {
			buf = []float64{7, 8, 9}
		}
		c.Bcast(buf, 2)
		if buf[0] != 7 || buf[2] != 9 {
			return fmt.Errorf("rank %d got %v", c.Rank(), buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduce(t *testing.T) {
	w := NewWorld(4, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := []float64{1}
		c.Reduce(buf, OpSum, 1)
		if c.Rank() == 1 && buf[0] != 4 {
			return fmt.Errorf("root got %g", buf[0])
		}
		if c.Rank() != 1 && buf[0] != 1 {
			return fmt.Errorf("non-root modified: %g", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	w := NewWorld(3, unitMachine())
	err := w.Run(func(c Comm) error {
		// Variable-length local parts.
		local := make([]float64, c.Rank()+1)
		for i := range local {
			local[i] = float64(c.Rank())
		}
		out := c.Allgather(local)
		want := []float64{0, 1, 1, 2, 2, 2}
		if len(out) != len(want) {
			return fmt.Errorf("len = %d", len(out))
		}
		for i := range out {
			if out[i] != want[i] {
				return fmt.Errorf("out = %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	w := NewWorld(2, unitMachine())
	err := w.Run(func(c Comm) error {
		if c.Rank() == 0 {
			c.Send(1, []float64{3.14})
			got := c.Recv(1)
			if got[0] != 2.71 {
				return fmt.Errorf("rank 0 got %v", got)
			}
		} else {
			got := c.Recv(0)
			if got[0] != 3.14 {
				return fmt.Errorf("rank 1 got %v", got)
			}
			c.Send(0, []float64{2.71})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2, unitMachine())
	err := w.Run(func(c Comm) error {
		if c.Rank() == 0 {
			msg := []float64{1}
			c.Send(1, msg)
			msg[0] = 999 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.Recv(0); got[0] != 1 {
				return fmt.Errorf("send did not copy: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostCharging(t *testing.T) {
	const p = 8 // lg = 3
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := make([]float64, 10)
		c.Allreduce(buf, OpSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		cost := w.RankCost(r)
		if cost.Messages != 3 {
			t.Fatalf("rank %d: %d messages, want 3", r, cost.Messages)
		}
		if cost.Words != 30 {
			t.Fatalf("rank %d: %d words, want 30", r, cost.Words)
		}
		if cost.Flops != 30 {
			t.Fatalf("rank %d: %d reduce flops, want 30", r, cost.Flops)
		}
	}
	if w.MaxCost().Messages != 3 || sumCosts(w).Messages != 24 {
		t.Fatal("aggregate costs wrong")
	}
	if w.ModeledSeconds() != unitMachine().Seconds(w.MaxCost()) {
		t.Fatal("ModeledSeconds mismatch")
	}
	w.ResetCosts()
	if sumCosts(w) != (perf.Cost{}) {
		t.Fatal("ResetCosts did not clear")
	}
}

// sumCosts returns the sum of every rank's cost on w.
func sumCosts(w World) perf.Cost {
	var t perf.Cost
	for r := 0; r < w.Size(); r++ {
		t.Add(w.RankCost(r))
	}
	return t
}

func TestSingleRankWorldChargesNothing(t *testing.T) {
	w := NewWorld(1, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := []float64{1}
		c.Allreduce(buf, OpSum)
		c.Barrier()
		c.Bcast(buf, 0)
		c.Reduce(buf, OpSum, 0)
		_ = c.AllreduceShared(buf)
		_ = c.Allgather(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := sumCosts(w); total != (perf.Cost{}) {
		t.Fatalf("P=1 charged %v", total)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(4, unitMachine())
	boom := errors.New("boom")
	err := w.Run(func(c Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		// Other ranks park in a collective; the abort must release them.
		buf := []float64{1}
		c.Allreduce(buf, OpSum)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The world is reusable after an aborted run.
	if err := w.Run(func(c Comm) error { c.Barrier(); return nil }); err != nil {
		t.Fatalf("world not reusable: %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	w := NewWorld(3, unitMachine())
	err := w.Run(func(c Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		c.Barrier()
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && searchStr(s, sub)))
}

func searchStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAllreduceLengthMismatchAborts: ranks that disagree on the length
// of an Allreduce all unwind — every rank sees every contribution, so
// none is left waiting on a combiner that panicked — in bounded time,
// with a diagnostic, leaking no goroutine, on every backend.
func TestAllreduceLengthMismatchAborts(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, p := range []int{2, 3} {
			baseline := runtime.NumGoroutine()
			w := mustWorld(t, backend, p)
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c Comm) error {
					buf := make([]float64, c.Rank()/(p-1)+1) // the last rank dissents
					c.Allreduce(buf, OpSum)
					return nil
				})
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "Allreduce length mismatch") {
					t.Fatalf("P=%d: err = %v, want an Allreduce length mismatch", p, err)
				}
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("P=%d: ranks still parked 10s after the mismatch\n%s", p, buf[:runtime.Stack(buf, true)])
			}
			VerifyNoGoroutineLeaks(t, baseline)
		}
	})
}

func TestSelfComm(t *testing.T) {
	c := NewSelfComm(unitMachine())
	if c.Rank() != 0 || c.Size() != 1 {
		t.Fatal("SelfComm identity")
	}
	buf := []float64{5}
	c.Allreduce(buf, OpSum)
	if buf[0] != 5 {
		t.Fatal("SelfComm Allreduce changed buffer")
	}
	sh := c.AllreduceShared(buf)
	if sh[0] != 5 || &sh[0] == &buf[0] {
		t.Fatal("SelfComm AllreduceShared should copy")
	}
	if c.Cost().Messages != 0 {
		t.Fatal("SelfComm charged messages")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SelfComm Send should panic")
			}
		}()
		c.Send(0, buf)
	}()
}

func TestAllreduceScalar(t *testing.T) {
	w := NewWorld(5, unitMachine())
	err := w.Run(func(c Comm) error {
		got := AllreduceScalar(c, 2, OpSum)
		if got != 10 {
			return fmt.Errorf("scalar sum = %g", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeProperties(t *testing.T) {
	f := func(n0 uint16, p0 uint8) bool {
		n := int(n0 % 5000)
		p := int(p0%63) + 1
		prevHi := 0
		total := 0
		for r := 0; r < p; r++ {
			lo, hi := BlockRange(n, p, r)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > n/p+1 || (n >= p && hi-lo < n/p) {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockRange(10, 4, 4)
}

func TestManyConcurrentCollectives(t *testing.T) {
	// Stress: many rounds of mixed collectives must not deadlock or
	// corrupt data.
	const p, rounds = 9, 200
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		for i := 0; i < rounds; i++ {
			buf := []float64{1}
			c.Allreduce(buf, OpSum)
			if buf[0] != p {
				return fmt.Errorf("round %d: %g", i, buf[0])
			}
			c.Barrier()
			sh := c.AllreduceShared([]float64{float64(i)})
			if sh[0] != float64(i*p) {
				return fmt.Errorf("round %d shared: %g", i, sh[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRunTwiceAccumulatesCosts(t *testing.T) {
	w := NewWorld(2, unitMachine())
	body := func(c Comm) error {
		buf := []float64{1}
		c.Allreduce(buf, OpSum)
		return nil
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	c1 := w.RankCost(0)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	c2 := w.RankCost(0)
	if c2.Messages != 2*c1.Messages {
		t.Fatalf("costs did not accumulate: %v then %v", c1, c2)
	}
}

func TestOpCombinePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Op(99).combine([]float64{1}, []float64{2})
}

func TestConcurrentWorlds(t *testing.T) {
	// Independent worlds must not interfere.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorld(4, unitMachine())
			errs[i] = w.Run(func(c Comm) error {
				buf := []float64{float64(i)}
				c.Allreduce(buf, OpSum)
				if buf[0] != float64(4*i) {
					return fmt.Errorf("world %d: %g", i, buf[0])
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", i, err)
		}
	}
	_ = math.Pi
}

func TestProfile(t *testing.T) {
	const p = 4
	w := NewWorld(p, unitMachine())
	err := w.Run(func(c Comm) error {
		buf := []float64{1, 2}
		c.Allreduce(buf, OpSum)
		c.Allreduce(buf, OpSum)
		c.Bcast(buf, 0)
		c.Barrier()
		_ = c.AllreduceShared(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ProfileEntry{}
	for _, e := range w.Profile() {
		byName[e.Name] = e
	}
	if byName["allreduce"].Calls != 2*p || byName["allreduce"].Words != 2*p*2 {
		t.Fatalf("allreduce entry: %+v", byName["allreduce"])
	}
	if byName["bcast"].Calls != p || byName["barrier"].Calls != p {
		t.Fatalf("bcast/barrier entries: %+v", byName)
	}
	if byName["allreduce_shared"].Calls != p {
		t.Fatalf("shared entry: %+v", byName["allreduce_shared"])
	}
	if _, ok := byName["send"]; ok {
		t.Fatal("unused collective reported")
	}
	s := w.ProfileString()
	if !searchStr(s, "allreduce") || !searchStr(s, "calls") {
		t.Fatalf("ProfileString:\n%s", s)
	}
}

func TestProfileEmpty(t *testing.T) {
	w := NewWorld(2, unitMachine())
	if got := w.ProfileString(); !searchStr(got, "no collectives") {
		t.Fatalf("empty profile: %q", got)
	}
}

func TestSelfCommAllCollectives(t *testing.T) {
	c := NewSelfComm(unitMachine())
	c.Barrier()
	buf := []float64{1, 2}
	c.Allreduce(buf, OpMax)
	c.Bcast(buf, 0)
	c.Reduce(buf, OpSum, 0)
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("SelfComm collectives modified data: %v", buf)
	}
	ag := c.Allgather(buf)
	if len(ag) != 2 || ag[0] != 1 {
		t.Fatalf("Allgather = %v", ag)
	}
	if c.Machine() != unitMachine() {
		t.Fatal("Machine() wrong")
	}
	func() {
		defer func() { recover() }()
		c.Recv(0)
		t.Fatal("Recv should panic")
	}()
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(3, unitMachine())
	if w.Size() != 3 {
		t.Fatal("accessors wrong")
	}
	err := w.Run(func(c Comm) error {
		if c.Machine() != unitMachine() {
			return errors.New("comm Machine() wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0, unitMachine())
}

func TestRecvReleasedOnAbort(t *testing.T) {
	// Regression: a rank blocked in Recv must unwind when another rank
	// fails, instead of deadlocking World.Run.
	w := NewWorld(2, unitMachine())
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c Comm) error {
			if c.Rank() == 0 {
				_ = c.Recv(1) // rank 1 never sends
				return nil
			}
			return errors.New("rank 1 failed")
		})
	}()
	select {
	case err := <-done:
		if err == nil || !searchStr(err.Error(), "rank 1 failed") {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("World.Run deadlocked on a blocked Recv")
	}
}

func TestNoStaleMessagesAfterAbortedRun(t *testing.T) {
	// Regression: a Send queued in a failed run must not be delivered
	// to a Recv in the next run.
	w := NewWorld(2, unitMachine())
	_ = w.Run(func(c Comm) error {
		if c.Rank() == 1 {
			c.Send(0, []float64{999})
			return errors.New("fail after send")
		}
		c.Barrier() // released by abort
		return nil
	})
	err := w.Run(func(c Comm) error {
		if c.Rank() == 1 {
			c.Send(0, []float64{7})
		}
		if c.Rank() == 0 {
			if got := c.Recv(1); got[0] != 7 {
				return fmt.Errorf("stale message delivered: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
