package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateShape(t *testing.T) {
	p := Generate(GenSpec{D: 20, M: 100, Density: 0.5, Seed: 1})
	d, m := p.Dim()
	if d != 20 || m != 100 {
		t.Fatalf("shape %dx%d", d, m)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.WTrue) != 20 || len(p.Y) != 100 {
		t.Fatal("vectors wrong length")
	}
}

func TestGenerateDensityMatchesSpec(t *testing.T) {
	for _, f := range []float64{0.1, 0.3, 1.0} {
		p := Generate(GenSpec{D: 50, M: 400, Density: f, Seed: 2})
		got := p.Density()
		if math.Abs(got-f) > 0.05 {
			t.Fatalf("density %g, want ~%g", got, f)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenSpec{D: 10, M: 50, Density: 0.4, Seed: 3})
	b := Generate(GenSpec{D: 10, M: 50, Density: 0.4, Seed: 3})
	if a.X.Nnz() != b.X.Nnz() {
		t.Fatal("nnz differs for same seed")
	}
	for i := range a.X.Val {
		if a.X.Val[i] != b.X.Val[i] {
			t.Fatal("values differ for same seed")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ for same seed")
		}
	}
	c := Generate(GenSpec{D: 10, M: 50, Density: 0.4, Seed: 4})
	if func() bool {
		for i := range a.Y {
			if a.Y[i] != c.Y[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestGenerateNoEmptyColumns(t *testing.T) {
	p := Generate(GenSpec{D: 30, M: 500, Density: 0.02, Seed: 5})
	for j := 0; j < p.X.Cols; j++ {
		if p.X.ColPtr[j+1] == p.X.ColPtr[j] {
			t.Fatalf("column %d empty", j)
		}
	}
}

func TestGeneratePlantedSupport(t *testing.T) {
	p := Generate(GenSpec{D: 40, M: 100, Density: 1, TrueNnz: 7, Seed: 6})
	nnz := 0
	for _, v := range p.WTrue {
		if v != 0 {
			nnz++
		}
	}
	if nnz != 7 {
		t.Fatalf("planted %d coefficients, want 7", nnz)
	}
}

func TestGenerateNoiseFreeLabels(t *testing.T) {
	p := Generate(GenSpec{D: 10, M: 60, Density: 1, NoiseStd: 0, Seed: 7})
	// y must equal X^T wTrue exactly.
	pred := make([]float64, 60)
	p.X.MulVecT(pred, p.WTrue, nil)
	for i := range pred {
		if pred[i] != p.Y[i] {
			t.Fatal("noise-free labels don't interpolate")
		}
	}
}

func TestGenerateRowScaleDecay(t *testing.T) {
	p := Generate(GenSpec{D: 30, M: 2000, Density: 1, RowScaleDecay: 0.01, Seed: 8})
	// Row 0 entries should be ~100x larger than row 29 entries in RMS.
	rms := func(row int) float64 {
		var s float64
		n := 0
		for j := 0; j < p.X.Cols; j++ {
			v := p.X.At(row, j)
			s += v * v
			n++
		}
		return math.Sqrt(s / float64(n))
	}
	ratio := rms(0) / rms(29)
	if ratio < 30 || ratio > 300 {
		t.Fatalf("scale ratio %g, want ~100", ratio)
	}
}

func TestGenerateFactorRankCorrelation(t *testing.T) {
	// With FactorRank << D, distinct feature rows must be strongly
	// correlated; without it, they are near-orthogonal.
	corr := func(p *Problem) float64 {
		rowDot := func(a, b int) float64 {
			var s float64
			for j := 0; j < p.X.Cols; j++ {
				s += p.X.At(a, j) * p.X.At(b, j)
			}
			return s
		}
		var maxAbs float64
		for a := 0; a < 6; a++ {
			for b := a + 1; b < 6; b++ {
				c := math.Abs(rowDot(a, b)) / math.Sqrt(rowDot(a, a)*rowDot(b, b))
				maxAbs = math.Max(maxAbs, c)
			}
		}
		return maxAbs
	}
	iid := Generate(GenSpec{D: 32, M: 800, Density: 1, Seed: 9})
	low := Generate(GenSpec{D: 32, M: 800, Density: 1, FactorRank: 4, Seed: 9})
	if corr(low) < 2*corr(iid) {
		t.Fatalf("factor model not more correlated: %g vs %g", corr(low), corr(iid))
	}
}

func TestGenerateFactorRankRequiresDense(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(GenSpec{D: 5, M: 5, Density: 0.5, FactorRank: 2, Seed: 1})
}

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	bad := []GenSpec{
		{D: 0, M: 5, Density: 0.5},
		{D: 5, M: 0, Density: 0.5},
		{D: 5, M: 5, Density: 0},
		{D: 5, M: 5, Density: 1.5},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("spec %d: expected panic", i)
				}
			}()
			Generate(spec)
		}()
	}
}

func TestRegistryComplete(t *testing.T) {
	ds := Datasets()
	if len(ds) != 5 {
		t.Fatalf("registry has %d datasets", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		if d.PaperRows <= 0 || d.PaperCols <= 0 || d.Density <= 0 || d.Density > 1 {
			t.Fatalf("%s: bad paper dims", d.Name)
		}
		if d.ScaledRows <= 0 || d.ScaledCols <= 0 {
			t.Fatalf("%s: bad scaled dims", d.Name)
		}
	}
	for _, want := range []string{"abalone", "susy", "covtype", "mnist", "epsilon"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestTable2PaperValues(t *testing.T) {
	// Pin the Table 2 numbers the registry must carry.
	checks := map[string][3]float64{
		"abalone": {4177, 8, 1.0},
		"susy":    {5_000_000, 18, 0.2539},
		"covtype": {581_012, 54, 0.2212},
		"mnist":   {60_000, 780, 0.1922},
		"epsilon": {400_000, 2000, 1.0},
	}
	for name, want := range checks {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if float64(d.PaperRows) != want[0] || float64(d.PaperCols) != want[1] || d.Density != want[2] {
			t.Fatalf("%s: %+v", name, d)
		}
	}
	// Paper lambdas: 1e-4 for epsilon, 0.1 for the rest (Section 5.1).
	for _, d := range Datasets() {
		wantLambda := 0.1
		if d.Name == "epsilon" {
			wantLambda = 1e-4
		}
		if d.Lambda != wantLambda {
			t.Fatalf("%s lambda = %g", d.Name, d.Lambda)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadProducesValidatedProblem(t *testing.T) {
	for _, name := range []string{"abalone", "susy", "covtype"} {
		p, err := LoadWith(name, 500, 0, 1)
		if err == nil && p.X.Rows == 0 {
			t.Fatalf("%s: zero features", name)
		}
	}
	p, err := LoadWith("covtype", 1000, 54, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Lambda <= 0 {
		t.Fatal("re-tuned lambda not positive")
	}
	// Density should track the registered fill.
	if math.Abs(p.Density()-0.2212) > 0.05 {
		t.Fatalf("covtype density %g", p.Density())
	}
}

func TestLambdaRetuningGivesNontrivialSolution(t *testing.T) {
	// lambda must be strictly below lambda_max (else w* = 0) for every
	// registered dataset.
	for _, name := range []string{"susy", "covtype", "mnist", "epsilon"} {
		p, err := LoadWith(name, 800, 24, 2)
		if err != nil {
			t.Fatal(err)
		}
		g0 := make([]float64, p.X.Rows)
		p.X.MulVec(g0, p.Y, nil)
		var lmax float64
		for _, v := range g0 {
			lmax = math.Max(lmax, math.Abs(v))
		}
		lmax /= float64(p.X.Cols)
		if p.Lambda >= lmax {
			t.Fatalf("%s: lambda %g >= lambda_max %g", name, p.Lambda, lmax)
		}
	}
}

func TestPaperSizeBytes(t *testing.T) {
	d, _ := Lookup("abalone")
	want := int64(4177 * 8 * 12)
	if got := d.PaperSizeBytes(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestProblemValidateErrors(t *testing.T) {
	p := Generate(GenSpec{D: 3, M: 5, Density: 1, Seed: 1})
	p.Y = p.Y[:4]
	if p.Validate() == nil {
		t.Fatal("label mismatch not caught")
	}
	p = Generate(GenSpec{D: 3, M: 5, Density: 1, Seed: 1})
	p.Lambda = -1
	if p.Validate() == nil {
		t.Fatal("negative lambda not caught")
	}
	p.X = nil
	if p.Validate() == nil {
		t.Fatal("nil matrix not caught")
	}
}

func TestLIBSVMRoundtrip(t *testing.T) {
	orig := Generate(GenSpec{D: 12, M: 40, Density: 0.4, Seed: 10})
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVM(&buf, 12)
	if err != nil {
		t.Fatal(err)
	}
	if back.X.Rows != 12 || back.X.Cols != 40 {
		t.Fatalf("roundtrip shape %dx%d", back.X.Rows, back.X.Cols)
	}
	for j := 0; j < 40; j++ {
		if math.Abs(back.Y[j]-orig.Y[j]) > 1e-12*math.Abs(orig.Y[j]) {
			t.Fatalf("label %d: %g vs %g", j, back.Y[j], orig.Y[j])
		}
		for i := 0; i < 12; i++ {
			a, b := orig.X.At(i, j), back.X.At(i, j)
			if a != b && math.Abs(a-b) > 1e-12*math.Abs(a) {
				t.Fatalf("entry (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}

func TestLIBSVMRoundtripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		orig := Generate(GenSpec{D: 6, M: 15, Density: 0.5, Seed: uint64(seed)})
		var buf bytes.Buffer
		if err := WriteLIBSVM(&buf, orig); err != nil {
			return false
		}
		back, err := ReadLIBSVM(&buf, 6)
		if err != nil {
			return false
		}
		return back.X.Nnz() == orig.X.Nnz()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLIBSVMParsing(t *testing.T) {
	in := `# a comment
1.5 1:2.0 3:-1
-1 2:0.5
0 1:1 2:2 3:3  # trailing comment

`
	p, err := ReadLIBSVM(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.X.Cols != 3 || p.X.Rows != 3 {
		t.Fatalf("parsed shape %dx%d", p.X.Rows, p.X.Cols)
	}
	if p.Y[0] != 1.5 || p.Y[1] != -1 || p.Y[2] != 0 {
		t.Fatalf("labels %v", p.Y)
	}
	if p.X.At(0, 0) != 2 || p.X.At(2, 0) != -1 || p.X.At(1, 1) != 0.5 {
		t.Fatal("entries wrong")
	}
}

func TestLIBSVMErrors(t *testing.T) {
	cases := []string{
		"abc 1:2",   // bad label
		"1 x:2",     // bad index
		"1 0:2",     // index < 1
		"1 2:1 1:3", // non-increasing indices
		"1 1:xyz",   // bad value
		"1 1:2 1:3", // duplicate index
	}
	for i, c := range cases {
		if _, err := ReadLIBSVM(strings.NewReader(c), 0); err == nil {
			t.Fatalf("case %d (%q): expected error", i, c)
		}
	}
	// Feature index exceeding the declared dimension.
	if _, err := ReadLIBSVM(strings.NewReader("1 5:1"), 3); err == nil {
		t.Fatal("over-dimension index not caught")
	}
}

// TestLIBSVMRejectsNonFinite: strconv.ParseFloat reads "nan", "inf" and
// "infinity" (any case, any sign) without error; the parser refuses
// each as a label or a feature value with an error naming its line, and
// Validate refuses a problem built around it.
func TestLIBSVMRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"nan", "NaN", "inf", "-Inf", "+infinity", "Infinity"} {
		for _, c := range []string{bad + " 1:1", "1 1:" + bad, "1 1:1 2:" + bad} {
			in := "1 1:1\n# comment\n" + c + "\n"
			_, err := ReadLIBSVM(strings.NewReader(in), 0)
			if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("%q: err = %v, want a line-3 non-finite error", c, err)
			}
		}
	}
	p := Generate(GenSpec{D: 4, M: 6, Density: 1, Seed: 3})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Y[2] = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN label validated")
	}
	p.Y[2] = 0
	p.X.Val[1] = math.Inf(-1)
	if err := p.Validate(); err == nil {
		t.Fatal("-Inf matrix entry validated")
	}
}

func TestLIBSVMFileIO(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test.svm"
	orig := Generate(GenSpec{D: 5, M: 10, Density: 0.8, Seed: 11})
	if err := WriteLIBSVMFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLIBSVMFile(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if back.X.Nnz() != orig.X.Nnz() {
		t.Fatal("file roundtrip lost entries")
	}
	if _, err := ReadLIBSVMFile(dir+"/missing.svm", 0); err == nil {
		t.Fatal("missing file not reported")
	}
}

func TestGenerateClassification(t *testing.T) {
	p := GenerateClassification(GenSpec{D: 10, M: 400, Density: 0.6, Seed: 80}, 0.1)
	pos, neg := 0, 0
	for _, y := range p.Y {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %g not in {-1,+1}", y)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate label split: %d/%d", pos, neg)
	}
	if !strings.HasSuffix(p.Name, "-classify") {
		t.Fatalf("name %q", p.Name)
	}
	// Deterministic for the same seed.
	q := GenerateClassification(GenSpec{D: 10, M: 400, Density: 0.6, Seed: 80}, 0.1)
	for i := range p.Y {
		if p.Y[i] != q.Y[i] {
			t.Fatal("classification labels not deterministic")
		}
	}
	// Flip probability changes labels.
	r := GenerateClassification(GenSpec{D: 10, M: 400, Density: 0.6, Seed: 80}, 0)
	diff := 0
	for i := range p.Y {
		if p.Y[i] != r.Y[i] {
			diff++
		}
	}
	if diff == 0 || diff > 100 {
		t.Fatalf("flips = %d, want ~40", diff)
	}
}
