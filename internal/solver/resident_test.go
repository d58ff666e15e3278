package solver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestResidentRacingFirstSolves: solves racing on one fresh handle —
// a server's first fits on a dataset — each fill the triple or read the
// one kept, exactly one is kept and charged to the budget, and every
// result equals the handle-less solve bit for bit. A handle whose
// budget cannot hold the triple fills it every time, keeps nothing,
// and answers alike.
func TestResidentRacingFirstSolves(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000
	solve := func(r *Resident) (*Result, error) {
		return SolveDistributedStream(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, o, r)
	}
	want, err := solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := p.X.Rows
	triple, round := 8*int64(mat.PackedLen(d)+d+1), 8*int64(o.K*(mat.PackedLen(d)+d))

	budget := NewStreamBudget(1 << 40)
	r := NewResident(budget)
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = solve(r)
		}(i)
	}
	wg.Wait()
	fills := 0
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireReplayed(t, fmt.Sprintf("racer %d", i), res, want)
		if res.GramFilled {
			fills++
		}
	}
	held := int64(heldRounds(r))
	stream, gram := r.Bytes()
	if fills < 1 || gram != triple || stream != held*round || budget.Used() != triple+held*round || held != int64(want.Rounds) {
		t.Fatalf("%d fills, %d triple and %d stream bytes, %d budget bytes for %d rounds; want one %d-byte triple and %d rounds",
			fills, gram, stream, budget.Used(), held, triple, want.Rounds)
	}

	starved := NewResident(NewStreamBudget(triple - 1))
	for i := 0; i < 2; i++ {
		res, err := solve(starved)
		if err != nil {
			t.Fatal(err)
		}
		requireReplayed(t, fmt.Sprintf("starved %d", i), res, want)
		if _, gram := starved.Bytes(); !res.GramFilled || gram != 0 {
			t.Fatalf("starved %d: filled %t, kept %d bytes", i, res.GramFilled, gram)
		}
	}
}
