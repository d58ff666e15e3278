package erm

import "math"

// Quantile is the smoothed pinball (quantile regression) loss. The
// exact pinball loss on the residual r = z - y,
//
//	rho_tau(r) = max(tau*(-r), (1-tau)*r),
//
// is convex but non-smooth at r = 0, which rules out the sampled-
// Hessian Proximal Newton. The logistic smoothing replaces the
// indicator 1{r > 0} in its derivative with sigmoid(r/eps):
//
//	loss(r) = (1-tau)*r + eps*softplus(-r/eps)
//
// whose derivative sigmoid(r/eps) - tau lands exactly in the pinball
// subdifferential (-tau, 1-tau) and whose second derivative
// sigma(1-sigma)/eps is bounded by 1/(4*eps) — the curvature bound the
// Lipschitz estimates need. As eps -> 0 the loss converges uniformly
// (within eps*log 2) to the pinball loss; tau = 1/2 recovers a scaled
// smoothed absolute deviation.
//
// Tau outside (0, 1) selects the median 0.5; Eps <= 0 selects 0.5.
type Quantile struct {
	Tau float64
	Eps float64
}

func (q Quantile) tau() float64 {
	if q.Tau <= 0 || q.Tau >= 1 {
		return 0.5
	}
	return q.Tau
}

func (q Quantile) eps() float64 {
	if q.Eps <= 0 {
		return 0.5
	}
	return q.Eps
}

// softplus is log(1+exp(t)), computed without overflow.
func softplus(t float64) float64 {
	if t > 30 {
		return t
	}
	return math.Log1p(math.Exp(t))
}

// Value returns the smoothed pinball loss of the residual z - y.
func (q Quantile) Value(z, y float64) float64 {
	eps := q.eps()
	r := z - y
	return (1-q.tau())*r + eps*softplus(-r/eps)
}

// Deriv returns sigmoid(r/eps) - tau, the smoothed pinball slope.
func (q Quantile) Deriv(z, y float64) float64 {
	return sigmoid((z-y)/q.eps()) - q.tau()
}

// Second returns sigma*(1-sigma)/eps with sigma = sigmoid(r/eps).
func (q Quantile) Second(z, y float64) float64 {
	s := sigmoid((z - y) / q.eps())
	return s * (1 - s) / q.eps()
}

// Name returns "quantile".
func (Quantile) Name() string { return "quantile" }
