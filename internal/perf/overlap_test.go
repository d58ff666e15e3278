package perf

import (
	"math"
	"testing"
)

func TestOverlapHidesSmallerSegment(t *testing.T) {
	m := Machine{Name: "m", Alpha: 1, Beta: 1, Gamma: 1}
	compute := Cost{Flops: 100}
	comm := Cost{Messages: 3, Words: 40}

	hidden := m.Overlap(compute, comm)
	if want := m.Seconds(comm); hidden != want { // comm (43s) < compute (100s)
		t.Fatalf("Overlap = %g, want the smaller segment %g", hidden, want)
	}

	// Charging the overlap turns the pair's contribution into
	// max(compute, comm).
	var total Cost
	total.Add(compute)
	total.Add(comm)
	total.AddOverlap(hidden)
	if got, want := m.Seconds(total), math.Max(m.Seconds(compute), m.Seconds(comm)); got != want {
		t.Fatalf("overlapped seconds = %g, want max(compute, comm) = %g", got, want)
	}

	// Symmetric and zero when either segment is empty (the P = 1 case:
	// AllreduceCost is the zero Cost).
	if m.Overlap(comm, compute) != hidden {
		t.Fatal("Overlap not symmetric")
	}
	if m.Overlap(compute, Cost{}) != 0 {
		t.Fatal("empty comm segment must hide nothing")
	}
}

func TestOverlapSecArithmetic(t *testing.T) {
	a := Cost{Flops: 10, OverlapSec: 1.5}
	b := Cost{Flops: 4, OverlapSec: 0.5}
	if got := a.Sub(b).OverlapSec; got != 1 {
		t.Fatalf("Sub: %g", got)
	}
	var acc Cost
	acc.Add(a)
	acc.Add(b)
	if acc.OverlapSec != 2 {
		t.Fatalf("Add: %g", acc.OverlapSec)
	}
	if got := a.Max(b).OverlapSec; got != 1.5 {
		t.Fatalf("Max: %g", got)
	}
	var nilCost *Cost
	nilCost.AddOverlap(3) // must not panic

	if s := (Cost{Flops: 1, OverlapSec: 0.5}).String(); s != "F=1 L=0 W=0 overlap=0.5s" {
		t.Fatalf("String: %q", s)
	}
	if s := (Cost{Flops: 1}).String(); s != "F=1 L=0 W=0" {
		t.Fatalf("blocking costs must render unchanged: %q", s)
	}
}

func TestSecondsNeverBelowStallFloor(t *testing.T) {
	// Over-credited overlap (a modeling bug, not a legal charge) must
	// clamp at the stall floor rather than produce negative time.
	m := Comet()
	c := Cost{Flops: 1000, StallSec: 2, OverlapSec: 1e9}
	if got := m.Seconds(c); got != 2 {
		t.Fatalf("Seconds = %g, want the 2s stall floor", got)
	}
}
