package solvercore

import (
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// LocalData is one rank's column (sample) block of the global problem,
// the Figure 1 data distribution: X is partitioned column-wise, y
// row-wise. It is the shared local-data shape of every sample-split
// solver (RC-SFISTA, the ProxNewtons); feature-split solvers
// (CoCoA) use FeatureBlock instead.
type LocalData struct {
	// X is the d x mLocal local block of the global d x m matrix.
	X *sparse.CSC
	// Y holds the mLocal local labels.
	Y []float64
	// ColOffset is the global index of the first local column.
	ColOffset int
	// MGlobal is the global sample count m.
	MGlobal int
}

// Partition returns rank's contiguous column block of (x, y) for a
// world of the given size. This is the single authoritative partition
// function; the solver and erm packages re-export it.
func Partition(x *sparse.CSC, y []float64, size, rank int) LocalData {
	lo, hi := dist.BlockRange(x.Cols, size, rank)
	return LocalData{
		X:         x.ColSlice(lo, hi),
		Y:         y[lo:hi],
		ColOffset: lo,
		MGlobal:   x.Cols,
	}
}

// LocalCols maps a global sample index set to local column indices.
func (l LocalData) LocalCols(global []int) []int {
	return l.AppendLocalCols(make([]int, 0, len(global)), global)
}

// AppendLocalCols is LocalCols appending to dst, for callers that keep
// the index buffer across rounds.
func (l LocalData) AppendLocalCols(dst, global []int) []int {
	lo := l.ColOffset
	hi := lo + l.X.Cols
	for _, j := range global {
		if j >= lo && j < hi {
			dst = append(dst, j-lo)
		}
	}
	return dst
}

// FeatureBlock is one worker's feature (row) block — the dual data
// layout of LocalData, used by CoCoA: w is split by features while the
// m-sample prediction vector is replicated.
type FeatureBlock struct {
	// Rows is the worker's block of feature rows of X, a
	// (hi-lo) x m CSR matrix.
	Rows *sparse.CSR
	// RowOffset is the global index of the first local feature.
	RowOffset int
	// D and M are the global feature and sample counts.
	D, M int
	// Y holds all m labels (replicated, as in CoCoA).
	Y []float64
}

// FeaturePartition returns rank's feature block: the CSR row-split
// adapter of Partition. xRows must be the CSR form of the global d x m
// matrix (rows = features); compute it once with x.ToCSR() and share
// across ranks.
func FeaturePartition(xRows *sparse.CSR, y []float64, size, rank int) FeatureBlock {
	lo, hi := dist.BlockRange(xRows.Rows, size, rank)
	block := &sparse.CSR{
		Rows:   hi - lo,
		Cols:   xRows.Cols,
		RowPtr: make([]int, hi-lo+1),
		ColIdx: xRows.ColIdx[xRows.RowPtr[lo]:xRows.RowPtr[hi]],
		Val:    xRows.Val[xRows.RowPtr[lo]:xRows.RowPtr[hi]],
	}
	base := xRows.RowPtr[lo]
	for i := lo; i <= hi; i++ {
		block.RowPtr[i-lo] = xRows.RowPtr[i] - base
	}
	return FeatureBlock{Rows: block, RowOffset: lo, D: xRows.Rows, M: xRows.Cols, Y: y}
}
