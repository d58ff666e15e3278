// Package scenario names the cells of the loss × regularizer matrix
// and converts between their surface spellings (CLI flags, serve
// request fields) and the prox/erm values the solvers consume. It is
// the single place the spellings are defined, so the CLI, the serving
// layer and the experiments cannot drift apart — and the canonical tags
// it produces are what keeps the λ-path cache honest (a huber fit must
// never warm-start an ℓ1 fit, so the tags go into the fingerprint).
package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// RegNames and LossNames list the accepted surface spellings.
var (
	RegNames  = []string{"l1", "en", "ridge", "group"}
	LossNames = []string{"ls", "logistic", "huber", "quantile"}
)

// RegSpec is the surface-level regularizer selection.
type RegSpec struct {
	// Name is one of RegNames; empty means "l1".
	Name string
	// Lambda is the primary penalty (ℓ1 strength for l1/en/group-l2
	// norm weight for group).
	Lambda float64
	// L2 is the quadratic strength for en and ridge.
	L2 float64
	// Groups is the group spec for "group" (prox.ParseGroups syntax).
	Groups string
}

// LossSpec is the surface-level loss selection.
type LossSpec struct {
	// Name is one of LossNames; empty means "ls".
	Name string
	// Delta is the huber knee; <= 0 selects the loss default.
	Delta float64
	// Tau is the quantile level; outside (0,1) selects the default 0.5.
	Tau float64
	// Eps is the quantile smoothing width; <= 0 selects the default.
	Eps float64
}

// BuildReg resolves the spec into a prox.Operator for dimension d.
func BuildReg(spec RegSpec, d int) (prox.Operator, error) {
	switch spec.Name {
	case "", "l1":
		return prox.L1{Lambda: spec.Lambda}, nil
	case "en":
		if spec.L2 <= 0 {
			return nil, fmt.Errorf("scenario: elastic net needs a positive l2 strength")
		}
		return prox.ElasticNet{Lambda1: spec.Lambda, Lambda2: spec.L2}, nil
	case "ridge":
		l := spec.L2
		if l <= 0 {
			l = spec.Lambda
		}
		if l <= 0 {
			return nil, fmt.Errorf("scenario: ridge needs a positive penalty (l2 or lambda)")
		}
		return prox.Ridge{Lambda: l}, nil
	case "group":
		if spec.Groups == "" {
			return nil, fmt.Errorf("scenario: group lasso needs a -groups spec (e.g. \"size:4\" or \"0-3,4-7\")")
		}
		groups, err := prox.ParseGroups(spec.Groups, d)
		if err != nil {
			return nil, err
		}
		return prox.GroupL2{Lambda: spec.Lambda, Groups: groups}, nil
	default:
		return nil, CheckRegName(spec.Name)
	}
}

// CheckRegName returns BuildReg's error for a regularizer name it does
// not know, nil for one it does, so a surface can refuse a misspelled
// name before it has the problem BuildReg needs.
func CheckRegName(name string) error {
	if name == "" || slices.Contains(RegNames, name) {
		return nil
	}
	return fmt.Errorf("scenario: unknown regularizer %q (want %s)", name, strings.Join(RegNames, "|"))
}

// BuildLoss resolves the spec into an erm.Loss.
func BuildLoss(spec LossSpec) (erm.Loss, error) {
	switch spec.Name {
	case "", "ls":
		return erm.Squared{}, nil
	case "logistic":
		return erm.Logistic{}, nil
	case "huber":
		return erm.Huber{Delta: spec.Delta}, nil
	case "quantile":
		return erm.Quantile{Tau: spec.Tau, Eps: spec.Eps}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown loss %q (want %s)", spec.Name, strings.Join(LossNames, "|"))
	}
}

// RegTag returns the canonical cache-fingerprint component of a
// regularizer: distinct scenarios produce distinct tags, and the
// default spellings (nil, prox.L1) collapse to the same tag so
// historical requests keep hitting the same cache population. The
// primary penalty (λ for l1/en/group) is deliberately excluded — the
// λ-path cache indexes by lambda separately and warm-starts across
// neighboring penalties of the same family.
func RegTag(op prox.Operator) string {
	switch g := op.(type) {
	case nil:
		return "l1"
	case prox.L1:
		return "l1"
	case prox.ElasticNet:
		return fmt.Sprintf("en:l2=%g", g.Lambda2)
	case prox.Ridge:
		return "ridge"
	case prox.GroupL2:
		h := fnv.New64a()
		for _, grp := range g.Groups {
			for _, i := range grp {
				fmt.Fprintf(h, "%d,", i)
			}
			h.Write([]byte(";"))
		}
		return fmt.Sprintf("group:%016x", h.Sum64())
	default:
		return fmt.Sprintf("custom:%T", op)
	}
}

// LossTag returns the canonical cache-fingerprint component of a loss.
// Defaults (nil, erm.Squared) collapse to "ls"; shape parameters are
// included because they change the optimum.
func LossTag(l erm.Loss) string {
	switch v := l.(type) {
	case nil:
		return "ls"
	case erm.Squared:
		return "ls"
	case erm.Logistic:
		return "logistic"
	case erm.Huber:
		return fmt.Sprintf("huber:d=%g", v.Delta)
	case erm.Quantile:
		return fmt.Sprintf("quantile:t=%g:e=%g", v.Tau, v.Eps)
	default:
		return "custom:" + l.Name()
	}
}
