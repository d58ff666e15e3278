package main

import (
	"math"
	"reflect"
	"testing"
)

func TestCompare(t *testing.T) {
	base := []byte(`{
 "a": {"W": ["3ff0"], "Iters": 4},
 "b": {"W": ["4000"], "Iters": 8},
 "c": {"W": null}
}`)
	head := []byte(`{
 "a": {"W": ["3ff0"], "Iters": 4},
 "b": {"W": ["4001"], "Iters": 8},
 "d": {"W": null}
}`)
	d, err := compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	want := fenceDiff{base: 3, head: 3, retired: []string{"c"}, added: []string{"d"}, changed: []string{"b"},
		moved: map[string][]string{"b": {"W[0]: 4000 → 4001"}}, largest: map[string]relMove{"b": {}}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("compare = %+v, want %+v", d, want)
	}

	// Retiring records alone moves nothing that survives.
	d, err = compare(base, []byte(`{
 "a": {"W": ["3ff0"], "Iters": 4}
}`))
	if err != nil || len(d.changed) != 0 || len(d.retired) != 2 {
		t.Fatalf("retire-only compare = %+v, %v", d, err)
	}

	// A reformatted record is a changed record: the fence is on bytes.
	d, _ = compare(base, []byte(`{"a": {"W":["3ff0"],"Iters":4}}`))
	if !reflect.DeepEqual(d.changed, []string{"a"}) || len(d.moved["a"]) != 0 {
		t.Fatalf("reformatted record not flagged as moving no value: %+v", d)
	}

	if _, err := compare([]byte("not json"), head); err == nil {
		t.Fatal("malformed base fixture accepted")
	}
	if _, err := compare(base, []byte("[]")); err == nil {
		t.Fatal("malformed work-tree fixture accepted")
	}
}

// A regenerated record that moved one interior trace objective names
// exactly that path, with both bit patterns.
func TestMovedPathsTraceObj(t *testing.T) {
	base := []byte(`{"W": ["3ff0", "4000"], "Iters": 48, "FinalObj": "3fc1",
 "Points": [{"Iter": 0, "Obj": "3fd0", "RelErr": "7ff8000000000001"},
            {"Iter": 2, "Obj": "3fc256facb4075d1", "RelErr": "7ff8000000000001"}]}`)
	head := []byte(`{"W": ["3ff0", "4000"], "Iters": 48, "FinalObj": "3fc1",
 "Points": [{"Iter": 0, "Obj": "3fd0", "RelErr": "7ff8000000000001"},
            {"Iter": 2, "Obj": "3fc256facb4075d3", "RelErr": "7ff8000000000001"}]}`)
	got, largest, err := movedPaths(base, head)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Points[1].Obj: 3fc256facb4075d1 → 3fc256facb4075d3 (rel 3.9e-16)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("movedPaths = %q, want %q", got, want)
	}
	if largest.path != "Points[1].Obj" || !(largest.rel > 3.8e-16 && largest.rel < 4e-16) {
		t.Fatalf("largest move = %+v", largest)
	}
}

// Every moved float carries its relative move and the record reports
// the largest: a move to NaN is infinite, one between zeros is none.
func TestMovedPathsRelative(t *testing.T) {
	base := []byte(`{"FinalObj": "3ff0000000000000", "FinalRelErr": "0000000000000000", "ModelSeconds": "8000000000000000",
 "Points": [{"Obj": "4000000000000000"}]}`)
	head := []byte(`{"FinalObj": "3ff0000000000001", "FinalRelErr": "7ff8000000000001", "ModelSeconds": "0000000000000000",
 "Points": [{"Obj": "4008000000000000"}]}`)
	got, largest, err := movedPaths(base, head)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"FinalObj: 3ff0000000000000 → 3ff0000000000001 (rel 2.2e-16)",
		"FinalRelErr: 0000000000000000 → 7ff8000000000001 (rel +Inf)",
		"ModelSeconds: 8000000000000000 → 0000000000000000 (rel 0)",
		"Points[0].Obj: 4000000000000000 → 4008000000000000 (rel 0.33)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("movedPaths = %q, want %q", got, want)
	}
	if largest.path != "FinalRelErr" || !math.IsInf(largest.rel, 1) {
		t.Fatalf("largest move = %+v, want FinalRelErr at +Inf", largest)
	}
}

// The summary line counts trace-only records apart from the records
// whose result fields moved, and names the latter.
func TestSummary(t *testing.T) {
	base := []byte(`{
 "trace": {"W": ["3ff0"], "Points": [{"Obj": "3fd0"}, {"Obj": "3fc1"}]},
 "iter":  {"W": ["3ff0"], "Points": [{"Obj": "3fd0"}]},
 "cost":  {"W": ["3ff0"], "Cost": {"Flops": 9}},
 "same":  {"W": ["3ff0"]},
 "fmt":   {"W": ["3ff0"]}
}`)
	head := []byte(`{
 "trace": {"W": ["3ff0"], "Points": [{"Obj": "3fd0"}, {"Obj": "3fc2"}]},
 "iter":  {"W": ["3ff1"], "Points": [{"Obj": "3fd1"}]},
 "cost":  {"W": ["3ff0"], "Cost": {"Flops": 8}},
 "same":  {"W": ["3ff0"]},
 "fmt":   {"W":["3ff0"]}
}`)
	d, err := compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	want := "golden-fence: 4 records changed, 1 of them only under Points[]; result fields moved in 2: cost, iter"
	if got := d.summary(); got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if got := (fenceDiff{}).summary(); got != "golden-fence: 0 records changed, 0 of them only under Points[]; result fields moved in 0" {
		t.Fatalf("empty summary = %q", got)
	}
}

// A record whose iterate moved names every moved coordinate, alongside
// counters, nested objects, length changes and keys present on one side.
func TestMovedPathsIterate(t *testing.T) {
	base := []byte(`{"W": ["3ff0", "4000", "4008"], "Iters": 48,
 "Cost": {"Flops": 100, "Words": 7}, "Events": [{"Kind": "drop"}], "Gone": true}`)
	head := []byte(`{"W": ["3ff0", "4001", "4009"], "Iters": 49,
 "Cost": {"Flops": 100, "Words": 8}, "Events": [], "New": null}`)
	got, _, err := movedPaths(base, head)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Cost.Words: 7 → 8",
		"Events: length 1 → 0",
		"Gone: true → (absent)",
		"Iters: 48 → 49",
		"New: (absent) → null",
		"W[1]: 4000 → 4001",
		"W[2]: 4008 → 4009",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("movedPaths = %q, want %q", got, want)
	}

	// A value that changes shape is reported whole.
	got, _, _ = movedPaths([]byte(`{"W": null}`), []byte(`{"W": ["3ff0"]}`))
	if want := []string{`W: null → ["3ff0"]`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shape change = %q, want %q", got, want)
	}
}
