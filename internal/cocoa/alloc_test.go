//go:build !race

package cocoa

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// TestEvaluateAllocationFree pins the objective evaluation, local loss
// plus the allreduced l1 norm, at zero allocations: its one-word
// allreduce runs on the engine's own buffer. Allocation counts are not
// exact under -race, which this file is built without.
func TestEvaluateAllocationFree(t *testing.T) {
	c := dist.NewSelfComm(perf.Comet())
	e := &cocoaEngine{
		rec: solvercore.NewRecorder("alloc", 0, c.Cost(), c.Machine()), c: c,
		local: LocalData{Y: []float64{1, -1, 2}}, opts: Options{Lambda: 0.1},
		m: 3, v: []float64{0.5, 0, 1}, wLoc: []float64{0.25, -2},
	}
	if f := e.evaluate(); f != (0.25+1+1)/6+0.1*2.25 {
		t.Fatalf("evaluate = %.17g", f)
	}
	if n := testing.AllocsPerRun(100, func() { e.evaluate() }); n != 0 {
		t.Fatalf("evaluate allocated %g times per call", n)
	}
}
