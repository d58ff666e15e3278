package expt

import (
	"strings"
	"testing"
)

// TestServingTablesRepeat: the serving experiment's sequential tables —
// the warm/cold path and the cold grid, each with a per-fit digest of w
// and iterations — render byte for byte alike on two runs, so diffing
// two runs' tables is a bit check of the served fits.
func TestServingTablesRepeat(t *testing.T) {
	cfg := DefaultConfig()
	_, procs, maxIter, dsRef, transport := servingScale(cfg)
	var runs [2]string
	for i := range runs {
		warm := servingWarmVsCold(cfg, dsRef, procs, maxIter, transport)
		grid := servingColdGrid(cfg, dsRef, procs, maxIter, transport)
		runs[i] = warm.Render() + grid.Render()
	}
	if runs[0] != runs[1] {
		t.Fatalf("two runs render differently:\n%s\n---\n%s", runs[0], runs[1])
	}
	if !strings.Contains(runs[0], "digest") {
		t.Fatalf("no digest column:\n%s", runs[0])
	}
}
