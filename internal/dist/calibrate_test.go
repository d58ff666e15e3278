package dist

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// calOpts keeps calibration sweeps small enough for the test suite.
var calOpts = CalibrationOptions{
	Sizes:      []int{1, 256, 2048},
	Reps:       3,
	GammaFlops: 1 << 16,
}

// machineBits is m's parameters as bit patterns, for exact comparison.
func machineBits(m perf.Machine) [5]uint64 {
	return [5]uint64{math.Float64bits(m.Alpha), math.Float64bits(m.Beta),
		math.Float64bits(m.Gamma), math.Float64bits(m.BetaF32), math.Float64bits(m.BetaI8)}
}

// checkCalibration calibrates a P = 4 world of the named transport and
// holds the result to its contract: a valid measured machine (not the
// assumed baseline), the same machine bits and the same samples on
// every rank, positive samples on every tier at the tier's modeled
// wire words, and no cost charged.
func checkCalibration(t *testing.T, transport string) {
	const p = 4
	w, err := NewWorldOn(transport, p, perf.Comet())
	if err != nil {
		t.Fatal(err)
	}
	cals := make([]Calibration, p)
	if err := w.Run(func(c Comm) error {
		pre := *c.Cost()
		cals[c.Rank()] = Calibrate(c, calOpts)
		if *c.Cost() != pre {
			return fmt.Errorf("rank %d: calibration charged costs: %+v", c.Rank(), *c.Cost())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m := cals[0].Machine
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted machine invalid: %v (%+v)", err, m)
	}
	base := perf.Comet()
	if m.Alpha == base.Alpha && m.Beta == base.Beta && m.Gamma == base.Gamma {
		t.Fatal("calibration returned the assumed baseline untouched")
	}
	if m.Name != "calibrated(comet)" || m.BetaF32 <= 0 || m.BetaI8 <= 0 {
		t.Fatalf("machine %+v", m)
	}
	for tier, pts := range cals[0].Sweeps {
		if len(pts) != len(calOpts.Sizes) {
			t.Fatalf("%v sweep has %d points, want %d", Tier(tier), len(pts), len(calOpts.Sizes))
		}
		for i, pt := range pts {
			if pt.Seconds <= 0 || pt.Words != int(tiers[tier].words(calOpts.Sizes[i])) {
				t.Fatalf("%v sample %+v at %d values", Tier(tier), pt, calOpts.Sizes[i])
			}
		}
	}
	for r := 1; r < p; r++ {
		if machineBits(cals[r].Machine) != machineBits(m) || cals[r].Machine.Name != m.Name {
			t.Fatalf("rank %d machine diverged: %+v vs %+v", r, cals[r].Machine, m)
		}
		for tier, pts := range cals[r].Sweeps {
			for i, pt := range pts {
				want := cals[0].Sweeps[tier][i]
				if pt.Words != want.Words || math.Float64bits(pt.Seconds) != math.Float64bits(want.Seconds) {
					t.Fatalf("rank %d %v sample %d: %+v, rank 0 holds %+v", r, Tier(tier), i, pt, want)
				}
			}
		}
	}
	if cals[0].String() == "" {
		t.Fatal("empty calibration report")
	}
}

// TestCalibrateOverTCP: calibration over the real TCP transport.
func TestCalibrateOverTCP(t *testing.T) { checkCalibration(t, "tcp") }

// TestCalibrateOnChanBackend: the routine is transport-generic — it
// runs on the in-process channels world too (the timings then reflect
// shared memory, which is exactly what a user calibrating the
// simulation transport asks for).
func TestCalibrateOnChanBackend(t *testing.T) { checkCalibration(t, "chan") }

// TestCalibrateSingleRank: with no transport to time, alpha/beta keep
// the communicator's assumed values and only gamma is measured.
func TestCalibrateSingleRank(t *testing.T) {
	c := NewSelfComm(perf.HighLatency())
	cal := Calibrate(c, calOpts)
	if cal.Machine.Alpha != perf.HighLatency().Alpha || cal.Machine.Beta != perf.HighLatency().Beta {
		t.Fatalf("single-rank alpha/beta should keep the baseline: %+v", cal.Machine)
	}
	if cal.Machine.Gamma <= 0 {
		t.Fatalf("gamma not measured: %+v", cal.Machine)
	}
	if err := cal.Machine.Validate(); err != nil {
		t.Fatal(err)
	}
}

// p2pCounter counts the point-to-point calls and rooted reductions
// made through it, keeping the wrapped communicator's tiers.
type p2pCounter struct {
	Comm
	tierForwarders
	calls *atomic.Int64
}

func (c p2pCounter) Send(to int, msg []float64) { c.calls.Add(1); c.Comm.Send(to, msg) }
func (c p2pCounter) Recv(from int) []float64    { c.calls.Add(1); return c.Comm.Recv(from) }
func (c p2pCounter) Reduce(buf []float64, op Op, root int) {
	c.calls.Add(1)
	c.Comm.Reduce(buf, op, root)
}

// TestCalibrateIssuesNoPointToPoint: calibration times the collective
// the model bills, so it issues no Send, Recv or Reduce on either
// transport — and still sweeps every tier through the counting wrapper.
func TestCalibrateIssuesNoPointToPoint(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		var calls atomic.Int64
		swept := make([]int, 2)
		if err := mustWorld(t, backend, 2).Run(func(c Comm) error {
			cal := Calibrate(p2pCounter{c, tierForwarders{c.(tieredComm)}, &calls}, calOpts)
			for _, pts := range cal.Sweeps {
				if len(pts) > 0 {
					swept[c.Rank()]++
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("calibration made %d point-to-point or rooted calls", n)
		}
		if swept[0] != len(tiers) || swept[1] != len(tiers) {
			t.Fatalf("swept %v tiers per rank, want %d", swept, len(tiers))
		}
	})
}

// TestFitAlphaBeta: the per-tier fit recovers planted alpha and beta
// from exact allreduce samples through the model's log2(P) scaling,
// and clamps degenerate fits positive.
func TestFitAlphaBeta(t *testing.T) {
	const alpha, beta = 2e-5, 3e-9
	for _, p := range []int{2, 3, 4, 8} {
		for tier := range tiers {
			lg := float64(perf.Log2Ceil(p))
			var pts []CalibrationPoint
			for _, n := range []int{1, 64, 512, 4096} {
				words := tiers[tier].words(n)
				pts = append(pts, CalibrationPoint{Words: int(words), Seconds: lg * (alpha + beta*float64(words))})
			}
			a, b := fitTier(pts, p)
			if math.Abs(a-alpha)/alpha > 1e-9 || math.Abs(b-beta)/beta > 1e-9 {
				t.Fatalf("P=%d %v: fit (%g, %g), want (%g, %g)", p, Tier(tier), a, b, alpha, beta)
			}
		}
	}
	// Decreasing samples would fit a negative slope; the clamp keeps
	// the model valid.
	a, b := fitTier([]CalibrationPoint{{1, 5e-6}, {4096, 1e-6}}, 2)
	if a <= 0 || b <= 0 {
		t.Fatalf("clamp failed: (%g, %g)", a, b)
	}
}
