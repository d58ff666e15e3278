// Package data provides the LASSO problem instances the experiments run
// on: a synthetic generator with planted sparse ground truth, a registry
// mirroring the five paper datasets of Table 2 (abalone, SUSY, covtype,
// mnist, epsilon), and LIBSVM-format I/O so the real datasets can be
// dropped in where available.
//
// The paper's datasets come from the LIBSVM collection and are not
// redistributable here; the generators reproduce each dataset's *shape*
// — feature count d, sample count m (scaled where noted) and non-zero
// density f — which are the quantities that drive both the convergence
// behaviour and every term of the communication/computation cost model
// (Table 1). See DESIGN.md Section 2 for the substitution argument.
package data

import (
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Problem is one l1-regularized least squares instance (Eq. 3).
type Problem struct {
	// Name identifies the instance (dataset or generator spec).
	Name string
	// X is the d x m data matrix: rows are features, columns samples.
	X *sparse.CSC
	// Y holds the m labels.
	Y []float64
	// Lambda is the l1 penalty (paper Section 5.1 tuning).
	Lambda float64
	// WTrue is the planted generator coefficient vector, or nil for
	// data read from files. It is NOT the LASSO optimum; use a
	// reference solve for that.
	WTrue []float64
}

// Dim returns (features d, samples m).
func (p *Problem) Dim() (d, m int) { return p.X.Rows, p.X.Cols }

// Density returns the non-zero fill f of the data matrix.
func (p *Problem) Density() float64 { return p.X.Density() }

// Validate performs structural sanity checks and refuses a non-finite
// label or matrix entry, which would poison every Gram, gradient and
// objective computed from the problem.
func (p *Problem) Validate() error {
	if p.X == nil {
		return fmt.Errorf("data: problem %q has nil matrix", p.Name)
	}
	if p.X.Cols != len(p.Y) {
		return fmt.Errorf("data: problem %q has %d samples but %d labels", p.Name, p.X.Cols, len(p.Y))
	}
	if p.Lambda < 0 {
		return fmt.Errorf("data: problem %q has negative lambda", p.Name)
	}
	for j, v := range p.Y {
		if !finite(v) {
			return fmt.Errorf("data: problem %q has non-finite label %g at sample %d", p.Name, v, j)
		}
	}
	for k, v := range p.X.Val {
		if !finite(v) {
			return fmt.Errorf("data: problem %q has non-finite matrix entry %g (stored value %d)", p.Name, v, k)
		}
	}
	return nil
}

// GenSpec parameterizes the synthetic LASSO generator.
type GenSpec struct {
	// Name labels the generated problem.
	Name string
	// D is the number of features, M the number of samples.
	D, M int
	// Density is the expected fraction of non-zeros per column of X,
	// in (0, 1]. 1 means dense.
	Density float64
	// TrueNnz is the number of non-zero coefficients planted in the
	// ground-truth w. Defaults to max(1, D/10) when zero.
	TrueNnz int
	// NoiseStd is the label noise standard deviation. Defaults to 0.01
	// of the signal scale when negative; 0 means noise-free.
	NoiseStd float64
	// FactorRank, when positive, draws each dense column as
	// U z + 0.3 g with U a fixed D x FactorRank factor matrix, giving
	// the features an effective rank of ~FactorRank. Real dense ML
	// datasets (e.g. epsilon) have strongly correlated features; the
	// low effective rank keeps subsampled Gram spectra close to the
	// population spectrum (benign minibatching) and slows
	// coordinate-wise methods. Dense (Density = 1) specs only.
	FactorRank int
	// RowScaleDecay, when in (0, 1), scales feature row i by
	// RowScaleDecay^(i/(D-1)), giving the Gram matrix a condition
	// number on the order of RowScaleDecay^-2 times its natural one.
	// Real datasets have strongly heterogeneous feature scales; this
	// reproduces the resulting slow tail convergence that makes the
	// paper's iteration counts non-trivial. 0 or 1 disables scaling.
	RowScaleDecay float64
	// Lambda is the l1 penalty to attach; defaults to 0.1 when zero.
	Lambda float64
	// Seed drives the generator.
	Seed uint64
}

// Generate builds a synthetic problem: X has iid standard normal
// entries on a Bernoulli(Density) sparsity pattern, w_true has TrueNnz
// random +-1-ish coefficients and y = X^T w_true + noise. The planted
// model makes the l1 problem well-posed with a meaningfully sparse
// solution, the regime the paper's benchmarks sit in.
func Generate(spec GenSpec) *Problem {
	if spec.D <= 0 || spec.M <= 0 {
		panic("data: Generate needs positive dimensions")
	}
	if spec.Density <= 0 || spec.Density > 1 {
		panic("data: Generate density must be in (0,1]")
	}
	if spec.TrueNnz <= 0 {
		spec.TrueNnz = spec.D / 10
		if spec.TrueNnz < 1 {
			spec.TrueNnz = 1
		}
	}
	if spec.NoiseStd < 0 {
		spec.NoiseStd = 0.01
	}
	if spec.Lambda == 0 {
		spec.Lambda = 0.1
	}
	r := rng.New(spec.Seed ^ 0xdead_beef_cafe_f00d)

	// Per-feature scales (decaying when RowScaleDecay is set).
	rowScale := make([]float64, spec.D)
	for i := range rowScale {
		rowScale[i] = 1
	}
	if spec.RowScaleDecay > 0 && spec.RowScaleDecay < 1 && spec.D > 1 {
		for i := range rowScale {
			rowScale[i] = math.Pow(spec.RowScaleDecay, float64(i)/float64(spec.D-1))
		}
	}

	// Sparsity pattern + values, built column by column (CSC order).
	x := &sparse.CSC{Rows: spec.D, Cols: spec.M, ColPtr: make([]int, spec.M+1)}
	expected := int(float64(spec.D*spec.M)*spec.Density) + spec.M
	x.RowIdx = make([]int, 0, expected)
	x.Val = make([]float64, 0, expected)
	// Fixed factor matrix for correlated dense columns.
	var factor []float64
	if spec.FactorRank > 0 {
		if spec.Density < 1 {
			panic("data: FactorRank requires a dense spec (Density = 1)")
		}
		factor = make([]float64, spec.D*spec.FactorRank)
		scale := 1 / math.Sqrt(float64(spec.FactorRank))
		for i := range factor {
			factor[i] = scale * r.NormFloat64()
		}
	}
	z := make([]float64, spec.FactorRank)
	for j := 0; j < spec.M; j++ {
		if factor != nil {
			for t := range z {
				z[t] = r.NormFloat64()
			}
			for i := 0; i < spec.D; i++ {
				var s float64
				row := factor[i*spec.FactorRank : (i+1)*spec.FactorRank]
				for t, u := range row {
					s += u * z[t]
				}
				s += 0.3 * r.NormFloat64()
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, rowScale[i]*s)
			}
		} else if spec.Density >= 1 {
			for i := 0; i < spec.D; i++ {
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, rowScale[i]*r.NormFloat64())
			}
		} else {
			// Expected Density*D non-zeros per column; guarantee >= 1 so
			// no sample is empty.
			nz := 0
			for i := 0; i < spec.D; i++ {
				if r.Bernoulli(spec.Density) {
					x.RowIdx = append(x.RowIdx, i)
					x.Val = append(x.Val, rowScale[i]*r.NormFloat64())
					nz++
				}
			}
			if nz == 0 {
				i := r.Intn(spec.D)
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, rowScale[i]*r.NormFloat64())
			}
		}
		x.ColPtr[j+1] = len(x.Val)
	}

	// Planted sparse coefficients. With decaying feature scales the
	// coefficients grow inversely, so every planted feature carries a
	// comparable share of the signal: recovering the weakly scaled
	// ones forces the solver through the ill-conditioned directions,
	// which is what makes real-data iteration counts non-trivial.
	wTrue := make([]float64, spec.D)
	for _, i := range r.SampleWithoutReplacement(spec.D, spec.TrueNnz) {
		v := 1 + 0.5*r.Float64()
		if r.Bernoulli(0.5) {
			v = -v
		}
		wTrue[i] = v / rowScale[i]
	}

	// Labels y = X^T wTrue + noise.
	y := make([]float64, spec.M)
	x.MulVecT(y, wTrue, nil)
	if spec.NoiseStd > 0 {
		for j := range y {
			y[j] += spec.NoiseStd * r.NormFloat64()
		}
	}

	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("synth-d%d-m%d-f%.2f", spec.D, spec.M, spec.Density)
	}
	return &Problem{Name: name, X: x, Y: y, Lambda: spec.Lambda, WTrue: wTrue}
}
