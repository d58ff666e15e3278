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
// `git show <base-ref>:<path>`. Under each CHANGED record the fence
// names what moved: every JSON path whose value differs, as
// `Points[11].Obj: 3fc256facb4075d1 → 3fc256facb4075d3`, at most
// maxMovedPerRecord of them, and a last line sums the regeneration up:
// how many records changed, how many of them only under Points[] (trace
// objectives, which no result reads), and which moved a result field —
// so a deliberate regeneration can be audited from the output alone.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// maxMovedPerRecord caps the moved paths printed under one CHANGED
// record; the rest are counted.
const maxMovedPerRecord = 12

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
			moved := d.moved[k]
			if len(moved) == 0 {
				fmt.Fprintln(os.Stderr, "      no value differs: the record was re-encoded")
			}
			for i, m := range moved {
				if i == maxMovedPerRecord {
					fmt.Fprintf(os.Stderr, "      ... and %d more\n", len(moved)-i)
					break
				}
				fmt.Fprintf(os.Stderr, "      %s\n", m)
			}
		}
		fmt.Fprintf(os.Stderr, "golden-fence: %d surviving records differ from %s\n", len(d.changed), ref)
		fmt.Fprintln(os.Stderr, d.summary())
		os.Exit(1)
	}
	fmt.Printf("golden-fence: every surviving record is byte-identical to %s\n", ref)
}

// fenceDiff is the key-level difference of two fixture files, each key
// list sorted, and for each changed key the paths that moved.
type fenceDiff struct {
	base, head              int
	retired, added, changed []string
	moved                   map[string][]string
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
			moved, err := movedPaths(rec, now)
			if err != nil {
				return fenceDiff{}, fmt.Errorf("record %s: %w", k, err)
			}
			if d.moved == nil {
				d.moved = map[string][]string{}
			}
			d.moved[k] = moved
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

// summary is the one-line audit of a regeneration: N records changed,
// M of them only under Points[], and the records whose result fields
// moved. A record that moved no value (re-encoded) counts as neither.
func (d fenceDiff) summary() string {
	pointsOnly := 0
	var results []string
	for _, k := range d.changed {
		trace, other := 0, 0
		for _, m := range d.moved[k] {
			if strings.HasPrefix(m, "Points[") {
				trace++
			} else {
				other++
			}
		}
		switch {
		case other > 0:
			results = append(results, k)
		case trace > 0:
			pointsOnly++
		}
	}
	s := fmt.Sprintf("golden-fence: %d records changed, %d of them only under Points[]; result fields moved in %d",
		len(d.changed), pointsOnly, len(results))
	if len(results) > 0 {
		s += ": " + strings.Join(results, ", ")
	}
	return s
}

// movedPaths lists every JSON path at which two encodings of one record
// hold different values, each as "path: base → head". Object keys are
// walked in sorted order and array elements by index; a key present on
// one side only reads "(absent)" on the other, and arrays of different
// lengths report the length after their common prefix. Numbers compare
// by their literal text, so nothing is lost to float64 decoding.
func movedPaths(base, head []byte) ([]string, error) {
	b, err := decodeNumbers(base)
	if err != nil {
		return nil, err
	}
	h, err := decodeNumbers(head)
	if err != nil {
		return nil, err
	}
	var out []string
	walkMoved("", b, h, &out)
	return out, nil
}

func decodeNumbers(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

func walkMoved(path string, b, h any, out *[]string) {
	switch bv := b.(type) {
	case map[string]any:
		hv, ok := h.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(bv)+len(hv))
		for k := range bv {
			keys = append(keys, k)
		}
		for k := range hv {
			if _, ok := bv[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			bx, inB := bv[k]
			hx, inH := hv[k]
			switch {
			case !inB:
				*out = append(*out, fmt.Sprintf("%s: (absent) → %s", p, show(hx)))
			case !inH:
				*out = append(*out, fmt.Sprintf("%s: %s → (absent)", p, show(bx)))
			default:
				walkMoved(p, bx, hx, out)
			}
		}
		return
	case []any:
		hv, ok := h.([]any)
		if !ok {
			break
		}
		n := min(len(bv), len(hv))
		for i := 0; i < n; i++ {
			walkMoved(fmt.Sprintf("%s[%d]", path, i), bv[i], hv[i], out)
		}
		if len(bv) != len(hv) {
			*out = append(*out, fmt.Sprintf("%s: length %d → %d", path, len(bv), len(hv)))
		}
		return
	default:
		// Scalars (string, json.Number, bool, nil) compare by value; a
		// scalar against an object or array is simply unequal.
		if b == h {
			return
		}
	}
	*out = append(*out, fmt.Sprintf("%s: %s → %s", path, show(b), show(h)))
}

// show renders one decoded value: strings and numbers bare, the rest
// as compact JSON.
func show(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case json.Number:
		return t.String()
	}
	// Re-encoding a value json.Decoder just produced cannot fail.
	buf, _ := json.Marshal(v)
	return string(buf)
}
