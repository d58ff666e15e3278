// Package sparse implements the sparse matrix kernels the paper's
// solvers rely on. The data matrix X is d x m (rows = features,
// columns = samples, paper Section 2.1) and is stored in compressed
// sparse column (CSC) form, because every stage of RC-SFISTA accesses X
// by sample: column sampling (stage A of Figure 1), the sampled Gram
// products H = (1/mbar) X I I^T X^T and R = (1/mbar) X I I^T y
// (stage B), and the full-gradient products X (X^T w).
//
// The packed sampled Gram has two paths that leave the same bits: a
// column-at-a-time sweep over each column's sparsity pattern, and, for a
// block that stores every entry (CSC.Full), a gather of the sampled
// columns into a dense panel that mat.SymPacked.PanelUpdate applies in
// register tiles (grampanel.go). Which one runs depends only on Full.
//
// A compressed sparse row (CSR) view and a COO builder are provided for
// construction and I/O. Kernels charge their exact flop counts into an
// optional *perf.Cost, mirroring package mat.
package sparse

import (
	"fmt"
	"sort"
)

// Entry is one coordinate-format non-zero.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format builder for sparse matrices. Duplicate
// entries are summed on conversion. The zero value with dimensions set
// is ready to use.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty builder for an r x c matrix.
func NewCOO(r, c int) *COO {
	if r < 0 || c < 0 {
		panic("sparse: negative dimensions")
	}
	return &COO{Rows: r, Cols: c}
}

// Append adds entry (i, j) = v. Zero values are dropped.
func (a *COO) Append(i, j int, v float64) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	if v == 0 {
		return
	}
	a.Entries = append(a.Entries, Entry{Row: i, Col: j, Val: v})
}

// Nnz returns the number of appended entries (before deduplication).
func (a *COO) Nnz() int { return len(a.Entries) }

// ToCSC converts the builder to CSC form, summing duplicates.
func (a *COO) ToCSC() *CSC {
	ents := append([]Entry(nil), a.Entries...)
	sort.Slice(ents, func(x, y int) bool {
		if ents[x].Col != ents[y].Col {
			return ents[x].Col < ents[y].Col
		}
		return ents[x].Row < ents[y].Row
	})
	m := &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: make([]int, a.Cols+1)}
	for idx := 0; idx < len(ents); {
		e := ents[idx]
		v := e.Val
		idx++
		for idx < len(ents) && ents[idx].Col == e.Col && ents[idx].Row == e.Row {
			v += ents[idx].Val
			idx++
		}
		if v != 0 {
			m.RowIdx = append(m.RowIdx, e.Row)
			m.Val = append(m.Val, v)
			m.ColPtr[e.Col+1]++
		}
	}
	for j := 0; j < a.Cols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m
}

// ToCSR converts the builder to CSR form, summing duplicates.
func (a *COO) ToCSR() *CSR {
	return a.ToCSC().ToCSR()
}
