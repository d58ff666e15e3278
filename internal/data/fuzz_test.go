package data

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/rng"
)

// FuzzReadLIBSVM exercises the parser against malformed input: it must
// either return an error or a structurally valid problem, never panic.
// The corpus runs under plain `go test`; `go test -fuzz=FuzzReadLIBSVM`
// explores further.
func FuzzReadLIBSVM(f *testing.F) {
	seeds := []string{
		"1 1:2.0 3:-1\n-1 2:0.5\n",
		"",
		"# only a comment\n",
		"1.5\n",
		"0 1:0\n",
		"abc 1:2\n",
		"1 0:1\n",
		"1 2:1 1:2\n",
		"1 1:1e308 2:-1e308\n",
		"1 1:nan\n",
		"nan 1:1\n",
		"1 1:-Inf 2:1\n",
		"Infinity 1:1\n",
		strings.Repeat("1 1:1\n", 100),
		"1 1:1 # trailing\n\n\n2 2:2\n",
		"-0.5 10:3.25\n",
		"1 1:2:3\n",
		"1 :5\n",
		"1 3:1 2:1 1:1\n",        // fully reversed indices
		"1 1:1 1:1 1:1\n",        // triplicated index
		"1 1:1 2:2\n2 2:1 1:2\n", // second line out of order
		"+1 1:+2.5\n",            // signed forms
		"1 1:1e-320\n",           // subnormal value
		"1 999999:1\n",           // huge index
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := ReadLIBSVM(bytes.NewReader(in), 0)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid problem: %v", verr)
		}
		// Every accepted problem is finite: "nan", "inf" and "infinity"
		// parse as floats but must be refused with their line.
		for _, v := range append(append([]float64(nil), p.Y...), p.X.Val...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parser accepted a non-finite value %g", v)
			}
		}
		// Structural invariants of the CSC result.
		if len(p.X.ColPtr) != p.X.Cols+1 {
			t.Fatal("ColPtr length wrong")
		}
		for j := 0; j < p.X.Cols; j++ {
			rows, _ := p.X.Col(j)
			for k := 1; k < len(rows); k++ {
				if rows[k] <= rows[k-1] {
					t.Fatal("row indices not strictly increasing")
				}
			}
			for _, r := range rows {
				if r < 0 || r >= p.X.Rows {
					t.Fatal("row index out of range")
				}
			}
		}
		// Roundtrip: what we write must parse back to the same shape.
		var buf bytes.Buffer
		if err := WriteLIBSVM(&buf, p); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadLIBSVM(&buf, p.X.Rows)
		if err != nil {
			t.Fatalf("roundtrip parse failed: %v", err)
		}
		if back.X.Cols != p.X.Cols {
			t.Fatalf("roundtrip changed sample count: %d vs %d", back.X.Cols, p.X.Cols)
		}
	})
}

// FuzzLIBSVMIndices is a structured fuzz of the parser's index
// strictness: a line with sorted, unique 1-based indices must parse;
// the same features shuffled out of order or with a duplicated index
// must be rejected with an error (never a panic). This pins the
// contract TestLIBSVMErrors spells out on the whole input space.
func FuzzLIBSVMIndices(f *testing.F) {
	f.Add(uint64(1), 3, uint8(0))
	f.Add(uint64(2), 1, uint8(1))
	f.Add(uint64(3), 8, uint8(2))
	f.Add(uint64(4), 5, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, k int, mode uint8) {
		if k < 0 {
			k = -k
		}
		k = k%10 + 1
		r := rng.New(seed)
		// k sorted unique 1-based indices with random gaps.
		idx := make([]int, k)
		next := 1 + r.Intn(3)
		for i := range idx {
			idx[i] = next
			next += 1 + r.Intn(4)
		}
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = r.NormFloat64()
			if vals[i] == 0 {
				vals[i] = 1
			}
		}
		build := func(order []int) string {
			var b strings.Builder
			b.WriteString("1")
			for _, i := range order {
				fmt.Fprintf(&b, " %d:%g", idx[i], vals[i])
			}
			b.WriteByte('\n')
			return b.String()
		}
		sorted := make([]int, k)
		for i := range sorted {
			sorted[i] = i
		}

		good := build(sorted)
		p, err := ReadLIBSVM(strings.NewReader(good), 0)
		if err != nil {
			t.Fatalf("sorted unique line rejected: %q: %v", good, err)
		}
		if p.X.Cols != 1 || p.X.Rows != idx[k-1] {
			t.Fatalf("parsed shape %dx%d from %q", p.X.Rows, p.X.Cols, good)
		}

		switch mode % 3 {
		case 0: // genuinely shuffled: only meaningful with k >= 2
			if k < 2 {
				return
			}
			order := append([]int(nil), sorted...)
			r.Shuffle(order)
			same := true
			for i := range order {
				if order[i] != sorted[i] {
					same = false
					break
				}
			}
			if same { // force a violation deterministically
				order[0], order[1] = order[1], order[0]
			}
			if _, err := ReadLIBSVM(strings.NewReader(build(order)), 0); err == nil {
				t.Fatalf("out-of-order indices accepted: %q", build(order))
			}
		case 1: // duplicate an index
			dup := append(append([]int(nil), sorted...), r.Intn(k))
			if _, err := ReadLIBSVM(strings.NewReader(build(dup)), 0); err == nil {
				t.Fatalf("duplicate index accepted: %q", build(dup))
			}
		case 2: // multi-line: good line plus a corrupted sibling
			bad := good + strings.Replace(good, " ", " 0:1 ", 1)
			if _, err := ReadLIBSVM(strings.NewReader(bad), 0); err == nil {
				t.Fatalf("zero index accepted: %q", bad)
			}
		}
	})
}
