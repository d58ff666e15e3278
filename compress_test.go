// Tolerance harness for Options.CompressTier = "f32": with compression
// off the solver is bit-identical to the recorded goldens (TestGolden
// covers that — CompressTier is unset in every fixture), and with
// compression on the float32 error-feedback allreduce must track the
// uncompressed run to 1e-6 on the iterate and the objective while
// shipping strictly fewer modeled wire words. The
// matrix covers P ∈ {1,4,8} × {dense fill, active set} on both the
// chan and tcp backends, and pins the compressed runs bit-identical
// across backends (the solver-level face of the collective conformance
// suite).
package rcsfista_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

const compressTol = 1e-6

// compressCase is one cell of the matrix; results are collected per
// backend so the cross-backend comparison can run after both.
type compressCase struct {
	p      int
	active bool
}

func (c compressCase) String() string {
	mode := "dense"
	if c.active {
		mode = "activeset"
	}
	return fmt.Sprintf("p%d/%s", c.p, mode)
}

func compressCases() []compressCase {
	var cs []compressCase
	for _, p := range []int{1, 4, 8} {
		for _, active := range []bool{false, true} {
			cs = append(cs, compressCase{p: p, active: active})
		}
	}
	return cs
}

func (e *goldenEnv) compressOpts(c compressCase, compress bool) solver.Options {
	o := e.opts()
	o.ActiveSet = c.active
	if compress {
		o.CompressTier = "f32"
	}
	return o
}

func runCompressCase(t *testing.T, backend string, c compressCase, compress bool, e *goldenEnv) *solver.Result {
	t.Helper()
	w, err := dist.NewWorldOn(backend, c.p, perf.Comet())
	if err != nil {
		t.Fatalf("world %s/p%d: %v", backend, c.p, err)
	}
	res, err := solver.SolveDistributed(w, e.prob.X, e.prob.Y, e.compressOpts(c, compress))
	if err != nil {
		t.Fatalf("solve %s/%v compress=%v: %v", backend, c, compress, err)
	}
	return res
}

// The test keeps its historical name (the option it was written for
// is gone) because the per-PR test floor tracks it by name.
func TestCompressPayloadTolerance(t *testing.T) {
	env := goldenSetup(t)

	// Compressed results per backend, for the cross-backend bit check.
	compressed := map[string]map[string]*solver.Result{}

	for _, backend := range []string{"chan", "tcp"} {
		backend := backend
		compressed[backend] = map[string]*solver.Result{}
		for _, c := range compressCases() {
			c := c
			t.Run(fmt.Sprintf("%s/%s", backend, c), func(t *testing.T) {
				base := runCompressCase(t, backend, c, false, env)
				comp := runCompressCase(t, backend, c, true, env)
				compressed[backend][c.String()] = comp

				// The iterate and the objective stay within tolerance of
				// the uncompressed run: error feedback keeps the float32
				// round-off from accumulating across rounds.
				if len(comp.W) != len(base.W) {
					t.Fatalf("W length %d, want %d", len(comp.W), len(base.W))
				}
				for i := range base.W {
					if d := math.Abs(comp.W[i] - base.W[i]); !(d <= compressTol) {
						t.Errorf("W[%d]: compressed %v vs %v (|Δ| = %g > %g)",
							i, comp.W[i], base.W[i], d, compressTol)
					}
				}
				if d := math.Abs(comp.FinalObj - base.FinalObj); !(d <= compressTol) {
					t.Errorf("FinalObj: compressed %v vs %v (|Δ| = %g > %g)",
						comp.FinalObj, base.FinalObj, d, compressTol)
				}

				// The point of shipping float32: strictly fewer modeled
				// wire words than the 64-bit run (the batch halves; the
				// scalar consensus/eval collectives stay full-width).
				if c.p > 1 && comp.Cost.Words >= base.Cost.Words {
					t.Errorf("compressed words %d, want < uncompressed %d",
						comp.Cost.Words, base.Cost.Words)
				}

				// Determinism: the compressed path has no hidden state
				// across solves — a rerun reproduces every bit.
				again := runCompressCase(t, backend, c, true, env)
				for i := range comp.W {
					if math.Float64bits(again.W[i]) != math.Float64bits(comp.W[i]) {
						t.Fatalf("compressed rerun diverged at W[%d]: %x vs %x",
							i, math.Float64bits(again.W[i]), math.Float64bits(comp.W[i]))
					}
				}
			})
		}
	}

	// Cross-backend oracle: the compressed solver is bit-identical on
	// chan and tcp, same as the uncompressed goldens — quantization
	// happens in one place (dist.F32Round) regardless of transport.
	t.Run("chan-vs-tcp", func(t *testing.T) {
		for _, c := range compressCases() {
			ch, tc := compressed["chan"][c.String()], compressed["tcp"][c.String()]
			if ch == nil || tc == nil {
				t.Fatalf("%s: missing result (chan=%v tcp=%v)", c, ch != nil, tc != nil)
			}
			if math.Float64bits(ch.FinalObj) != math.Float64bits(tc.FinalObj) {
				t.Errorf("%s: FinalObj differs across backends: %x vs %x",
					c, math.Float64bits(ch.FinalObj), math.Float64bits(tc.FinalObj))
			}
			for i := range ch.W {
				if math.Float64bits(ch.W[i]) != math.Float64bits(tc.W[i]) {
					t.Errorf("%s: W[%d] differs across backends: %x vs %x",
						c, i, math.Float64bits(ch.W[i]), math.Float64bits(tc.W[i]))
					break
				}
			}
			if ch.Cost.Words != tc.Cost.Words || ch.Cost.Messages != tc.Cost.Messages {
				t.Errorf("%s: cost differs across backends: words %d/%d messages %d/%d",
					c, ch.Cost.Words, tc.Cost.Words, ch.Cost.Messages, tc.Cost.Messages)
			}
		}
	})
}
