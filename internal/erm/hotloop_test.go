package erm

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestPNRoundAllocationFreeWhenWarm pins one warm Proximal Newton
// round, Fill then Process, at zero allocations with and without the
// line search: the sampled Hessian views, the subproblem's R and the
// power iteration's vectors all live in the engine.
func TestPNRoundAllocationFreeWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := data.Generate(data.GenSpec{D: 24, M: 400, Density: 0.3, Lambda: 0.1, Seed: 7})
	for _, ls := range []bool{false, true} {
		e, err := newPNEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0),
			Options{Loss: Logistic{}, Lambda: p.Lambda, B: 0.1, LineSearch: ls, OuterIter: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, e.BatchLen())
		round := func() {
			e.Fill(buf)
			e.Process(buf)
		}
		round() // warm the engine's buffers
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Fatalf("warm round (line search %v) allocated %g times", ls, n)
		}
	}
}
