package solvercore

import (
	"math"
	"testing"
)

func TestRelErr(t *testing.T) {
	if math.Abs(RelErr(1.1, 1.0)-0.1) > 1e-12 {
		t.Fatalf("RelErr = %g", RelErr(1.1, 1.0))
	}
	if math.Abs(RelErr(0.9, 1.0)-0.1) > 1e-12 {
		t.Fatal("RelErr should be absolute")
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Fatal("RelErr with zero reference")
	}
	if !math.IsNaN(RelErr(0.5, math.NaN())) {
		t.Fatal("RelErr with an unknown reference")
	}
}
