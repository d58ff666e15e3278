// Command goldenfence fails when a golden fixture that exists both at
// a base git ref and in the work tree changed between the two. Records
// may be retired or added freely — those are listed, not failed — but
// a record that survives must survive byte for byte, so "retire N
// fixtures" can never hide "regenerate the rest".
//
// Usage (from the repository root; `make golden-fence BASE=<ref>`):
//
//	goldenfence <base-ref> [path]
//
// path defaults to testdata/golden.json. The base copy is read with
// `git show <base-ref>:<path>`.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: goldenfence <base-ref> [path]")
		os.Exit(2)
	}
	ref, path := os.Args[1], "testdata/golden.json"
	if len(os.Args) == 3 {
		path = os.Args[2]
	}
	show := exec.Command("git", "show", ref+":"+path)
	show.Stderr = os.Stderr
	base, err := show.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldenfence: git show %s:%s: %v\n", ref, path, err)
		os.Exit(2)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldenfence: %v\n", err)
		os.Exit(2)
	}
	d, err := compare(base, head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldenfence: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("golden-fence: %d records at %s, %d in the work tree: %d kept, %d retired, %d added\n",
		d.base, ref, d.head, d.base-len(d.retired), len(d.retired), len(d.added))
	for _, k := range d.retired {
		fmt.Printf("  retired: %s\n", k)
	}
	for _, k := range d.added {
		fmt.Printf("  added:   %s\n", k)
	}
	if len(d.changed) > 0 {
		for _, k := range d.changed {
			fmt.Fprintf(os.Stderr, "  CHANGED: %s\n", k)
		}
		fmt.Fprintf(os.Stderr, "golden-fence: %d surviving records differ from %s\n", len(d.changed), ref)
		os.Exit(1)
	}
	fmt.Printf("golden-fence: every surviving record is byte-identical to %s\n", ref)
}

// fenceDiff is the key-level difference of two fixture files, each key
// list sorted.
type fenceDiff struct {
	base, head              int
	retired, added, changed []string
}

// compare splits the two fixture files into their top-level records and
// compares the raw bytes of every record present in both.
func compare(base, head []byte) (fenceDiff, error) {
	var b, h map[string]json.RawMessage
	if err := json.Unmarshal(base, &b); err != nil {
		return fenceDiff{}, fmt.Errorf("base fixture: %w", err)
	}
	if err := json.Unmarshal(head, &h); err != nil {
		return fenceDiff{}, fmt.Errorf("work-tree fixture: %w", err)
	}
	d := fenceDiff{base: len(b), head: len(h)}
	for k, rec := range b {
		switch now, ok := h[k]; {
		case !ok:
			d.retired = append(d.retired, k)
		case !bytes.Equal(rec, now):
			d.changed = append(d.changed, k)
		}
	}
	for k := range h {
		if _, ok := b[k]; !ok {
			d.added = append(d.added, k)
		}
	}
	sort.Strings(d.retired)
	sort.Strings(d.added)
	sort.Strings(d.changed)
	return d, nil
}
