package main

import (
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
	want := fenceDiff{base: 3, head: 3, retired: []string{"c"}, added: []string{"d"}, changed: []string{"b"}}
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
	if !reflect.DeepEqual(d.changed, []string{"a"}) {
		t.Fatalf("reformatted record not flagged: %+v", d)
	}

	if _, err := compare([]byte("not json"), head); err == nil {
		t.Fatal("malformed base fixture accepted")
	}
	if _, err := compare(base, []byte("[]")); err == nil {
		t.Fatal("malformed work-tree fixture accepted")
	}
}
