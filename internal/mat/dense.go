package mat

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Dense is a row-major dense matrix. No production code uses it: it
// is the tests' dense reference, against which the packed kernels
// (SymPacked) are held.
type Dense struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimensions")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// DenseOf wraps data (not copied) as an r x c matrix.
func DenseOf(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: DenseOf got %d values for %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// Dim returns the row dimension, the operator size when a is square.
func (a *Dense) Dim() int { return a.Rows }

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns a view of row i (shares storage).
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	out := NewDense(a.Rows, a.Cols)
	copy(out.Data, a.Data)
	return out
}

// MulVec computes y = A*x. Panics on dimension mismatch.
func (a *Dense) MulVec(y, x []float64, c *perf.Cost) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("mat: MulVec dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	c.AddFlops(int64(2 * a.Rows * a.Cols))
}

// AddScaledCol computes y += s * A[:, j].
func (a *Dense) AddScaledCol(j int, s float64, y []float64, c *perf.Cost) {
	if j < 0 || j >= a.Cols || len(y) != a.Rows {
		panic("mat: AddScaledCol dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		y[i] += s * a.Data[i*a.Cols+j]
	}
	c.AddFlops(int64(2 * a.Rows))
}
