// Package perf implements the alpha-beta-gamma distributed performance
// model used throughout the paper (Eq. 7):
//
//	T = gamma*F + alpha*L + beta*W
//
// where F is the number of floating point operations, L the number of
// messages (latency count), and W the number of words moved (bandwidth
// count). The package also provides the closed-form per-algorithm cost
// functions of Table 1, the RC-SFISTA runtime of Eq. 24, and the upper
// bounds for the iteration-overlapping parameter k and the Hessian-reuse
// parameter S of Eqs. 25-28.
package perf

import (
	"fmt"
	"math"
)

// Machine holds the machine-specific parameters of the alpha-beta-gamma
// model. All values are in seconds (per message, per word, per flop).
type Machine struct {
	// Name identifies the machine profile, e.g. "comet".
	Name string
	// Alpha is the latency cost: seconds to send one message.
	Alpha float64
	// Beta is the inverse bandwidth: seconds to move one 8-byte word.
	Beta float64
	// Gamma is the compute cost: seconds per floating point operation.
	Gamma float64
	// BetaF32 and BetaI8 are optional per-tier inverse bandwidths for
	// the compressed collective frames, whose per-word wire overhead
	// differs from the 8-byte float64 frames (4 bytes per f32 value,
	// ~1.06 bytes per dithered int8 value). Zero falls back to Beta;
	// dist.Calibrate fits them from per-tier allreduce sweeps and the
	// solver's auto tier policy prices candidate tiers with them.
	BetaF32 float64
	BetaI8  float64
}

// F32Beta returns the fitted float32-frame inverse bandwidth, falling
// back to the base Beta when no per-tier fit is present.
func (m Machine) F32Beta() float64 {
	if m.BetaF32 > 0 {
		return m.BetaF32
	}
	return m.Beta
}

// I8Beta returns the fitted int8-frame inverse bandwidth, falling back
// to the base Beta when no per-tier fit is present.
func (m Machine) I8Beta() float64 {
	if m.BetaI8 > 0 {
		return m.BetaI8
	}
	return m.Beta
}

// Comet returns the XSEDE Comet profile the paper calibrates against
// (Section 5.3): alpha = 1e-6 s, beta = 1.42e-10 s/word and
// gamma = 4e-10 s/flop.
func Comet() Machine {
	return Machine{Name: "comet", Alpha: 1e-6, Beta: 1.42e-10, Gamma: 4e-10}
}

// LowLatency returns a profile with a 10x lower latency-to-bandwidth
// ratio than Comet. Useful in ablations: iteration-overlapping pays off
// less on such machines (Eq. 25).
func LowLatency() Machine {
	return Machine{Name: "low-latency", Alpha: 1e-7, Beta: 1.42e-10, Gamma: 4e-10}
}

// HighLatency returns a cloud-like profile with a 50x higher latency
// than Comet. Iteration-overlapping pays off more on such machines.
func HighLatency() Machine {
	return Machine{Name: "high-latency", Alpha: 5e-5, Beta: 2e-10, Gamma: 4e-10}
}

// Seconds evaluates the model (Eq. 7) for an accumulated cost. Injected
// stall time (fault timeouts, straggler waits) adds directly: it is
// already in seconds and independent of the machine parameters. The
// model has no overlap term: a round costs the same whichever loop ran
// it.
func (m Machine) Seconds(c Cost) float64 {
	return m.Gamma*float64(c.Flops) + m.Alpha*float64(c.Messages) + m.Beta*float64(c.Words) + c.StallSec
}

// String implements fmt.Stringer.
func (m Machine) String() string {
	return fmt.Sprintf("%s(alpha=%.3g beta=%.3g gamma=%.3g)", m.Name, m.Alpha, m.Beta, m.Gamma)
}

// Validate reports whether all machine parameters are positive. The
// per-tier betas may be zero (fall back to Beta) but not negative.
func (m Machine) Validate() error {
	if m.Alpha <= 0 || m.Beta <= 0 || m.Gamma <= 0 {
		return fmt.Errorf("perf: machine %q has non-positive parameters", m.Name)
	}
	if m.BetaF32 < 0 || m.BetaI8 < 0 || math.IsNaN(m.BetaF32) || math.IsNaN(m.BetaI8) {
		return fmt.Errorf("perf: machine %q has negative per-tier beta", m.Name)
	}
	return nil
}
