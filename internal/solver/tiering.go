package solver

// Solver-side face of the tiered quantized collectives
// (Options.CompressTier): the per-engine tier configuration, the
// cost-model-driven auto policy, the capability validation against the
// transport, and the residual-reset hook the screening engine fires on
// working-set generation changes. The wire substrate (quantizers,
// tiered collectives, per-tier cost model) lives in internal/dist; the
// error-feedback streams in internal/solvercore.

import (
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
)

// autoTighten is the default gradient-map norm below which the auto
// policy starts tightening off the i8 tier (one decade later it leaves
// f32 too). When the run has an explicit GradMapTol target, the
// thresholds anchor to it instead: 100x the target flips i8 off, 1x
// flips f32 off, so the endgame always finishes at full precision
// relative to what the caller asked for.
const autoTighten = 1e-3

// tierProgressEps and tierStallLimit drive the auto policy's
// objective-stagnation ratchet. The gradient-map norm alone can
// deadlock the policy loose on ill-conditioned data: the i8 dither on
// a wide-dynamic-range Gram batch holds the norm above the tightening
// threshold, which keeps the policy on i8, which sustains the noise —
// and on problems without strong convexity the iterate can drift
// unboundedly along flat directions while the loop never tightens.
// The objective is the rank-identical signal that breaks the loop:
// when tierStallLimit consecutive evaluations fail to improve the
// best-seen objective by tierProgressEps relative, the i8 rung is
// capped off for the rest of the run. A plateau at i8 means the run
// is either at the dither noise floor or diverging, and both want the
// same response. The ratchet is monotone (it never loosens back), so
// the per-rank decisions stay trivially in agreement.
const (
	tierProgressEps = 1e-8
	tierStallLimit  = 6
)

// tierConfig is the engine's parsed Options.CompressTier.
type tierConfig struct {
	on    bool      // any compression requested ("" means off)
	auto  bool      // per-collective policy instead of a fixed tier
	fixed dist.Tier // the fixed tier when !auto
}

// canonicalTier returns the canonical spelling of an
// Options.CompressTier value: "" for every spelling of the
// uncompressed default ("", "off", "f64"), anything else unchanged.
// It is the one canonicalizer: withDefaults applies it, so whatever
// reads the option sees one spelling per tier.
func canonicalTier(s string) string {
	if t, err := dist.ParseTier(s); err == nil && t == dist.TierF64 {
		return ""
	}
	return s
}

// parseTierConfig maps an Options.CompressTier spelling to a
// tierConfig.
func parseTierConfig(s string) (tierConfig, error) {
	switch s = canonicalTier(s); s {
	case "":
		return tierConfig{}, nil
	case "auto":
		return tierConfig{on: true, auto: true}, nil
	}
	t, err := dist.ParseTier(s)
	return tierConfig{on: err == nil, fixed: t}, err
}

// validateTierSupport checks that the transport implements every
// compressed collective the configured tier mode can select. Auto may
// pick any rung of the ladder, so it requires both.
func validateTierSupport(c dist.Comm, tc tierConfig) error {
	if !tc.on {
		return nil
	}
	need := []dist.Tier{tc.fixed}
	if tc.auto {
		need = []dist.Tier{dist.TierF32, dist.TierI8}
	}
	for _, t := range need {
		if err := dist.SupportsTier(c, t); err != nil {
			return fmt.Errorf("solver: CompressTier: %v", err)
		}
	}
	return nil
}

// tierAt picks the wire tier for an n-value collective this round. It
// is the TierOf hook of the stage-C TieredExchanger and is
// consulted directly by the stage-A gradient refresh, the KKT scan and
// the objective reduction. Every input — the fixed configuration, the
// allreduced gradient-map norm, the payload length, the Bcast-shared
// machine model — is identical on all ranks, so the choice needs no
// extra coordination.
func (e *engine) tierAt(n int) dist.Tier {
	if !e.tiers.on {
		return dist.TierF64
	}
	if !e.tiers.auto {
		return dist.EffectiveTier(e.tiers.fixed, n)
	}
	// Loosest rung the convergence state permits: far from the optimum
	// the quantization error is dominated by the gradient signal, so i8
	// is safe; past the tightening threshold the ladder steps back to
	// f32 (~1e-7 relative error, below any tolerance this solver
	// targets). The full-precision rung engages only when the run has an
	// explicit GradMapTol target and is within a decade of it — without
	// a precision target there is nothing for f64's extra words to buy.
	tighten := autoTighten
	if e.opts.GradMapTol > 0 {
		tighten = 100 * e.opts.GradMapTol
	}
	loosest := dist.TierF32
	if !(e.ex.norm <= tighten) { // +Inf (no signal yet) stays loose
		loosest = dist.TierI8
	} else if e.opts.GradMapTol > 0 && e.ex.norm <= 10*e.opts.GradMapTol {
		loosest = dist.TierF64
	}
	if loosest > e.tierCap { // objective-stagnation ratchet (tierProgress)
		loosest = e.tierCap
	}
	// Among the permitted rungs, take the cheapest under the calibrated
	// per-tier cost model; ties break toward precision. On one rank the
	// tree is empty (lg P = 0), every tier prices to zero, and the
	// policy degenerates to f64 — nothing moves, nothing quantizes.
	m, p := e.c.Machine(), e.c.Size()
	best, bestS := dist.TierF64, dist.TierSeconds(m, p, n, dist.TierF64)
	for _, t := range []dist.Tier{dist.TierF32, dist.TierI8} {
		if t > loosest {
			break
		}
		if s := dist.TierSeconds(m, p, n, t); s < bestS {
			best, bestS = t, s
		}
	}
	return dist.EffectiveTier(best, n)
}

// resetCompressState drops every carried error-feedback residual whose
// coordinates just changed meaning: the screening engine calls it when
// the working set changes generation. The stage-C exchanger's residual
// lives in the packed batch layout, which the new generation reshapes
// even when its length happens to match; the KKT stream is reset with
// it so no pre-change quantization error leaks into the screening
// decisions taken under the new layout. The stage-A gradient stream is
// full-length and layout-independent — it keys on length alone.
func (e *engine) resetCompressState() {
	e.exch.ResetResidual()
	e.kktEF.Reset()
}

// tierProgress feeds one evaluated objective (identical on every rank:
// the loss is allreduced, the regularizer evaluates the replicated
// iterate) into the stagnation ratchet. Strict improvement of the
// best-seen objective by tierProgressEps relative resets the stall
// count; tierStallLimit consecutive stalls cap the ladder at f32 for
// the rest of the run. The cap never loosens — see the constants above
// for why a loose plateau must not be given a second chance.
func (e *engine) tierProgress(obj float64) {
	if !e.tiers.auto || e.tierCap < dist.TierI8 {
		return
	}
	if obj < e.tierBestObj-tierProgressEps*(1+math.Abs(e.tierBestObj)) {
		e.tierBestObj = obj
		e.tierStall = 0
		return
	}
	if obj < e.tierBestObj {
		e.tierBestObj = obj
	}
	e.tierStall++
	if e.tierStall >= tierStallLimit {
		e.tierCap = dist.TierF32
	}
}
