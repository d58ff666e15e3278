package perf_test

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// ExampleParameterBounds reproduces the paper's two quantitative
// tuning anchors (Section 5.3) from the closed-form bounds.
func ExampleParameterBounds() {
	comet := perf.Comet()
	covtype := perf.ParameterBounds(comet, perf.AlgoParams{
		N: 200, P: 256, D: 54, MBar: 5810, Fill: 0.2212,
	})
	mnist := perf.ParameterBounds(comet, perf.AlgoParams{
		N: 200, P: 256, D: 780, MBar: 600, Fill: 0.1922,
	})
	fmt.Printf("covtype k_max (Eq. 25): %.2f\n", covtype.KLatencyBandwidth)
	fmt.Printf("mnist S bound (Eq. 27): %.2f\n", mnist.KSProduct)
	// Output:
	// covtype k_max (Eq. 25): 2.42
	// mnist S bound (Eq. 27): 6.57
}

// ExampleMachine_Seconds evaluates the alpha-beta-gamma model (Eq. 7)
// on an accumulated cost.
func ExampleMachine_Seconds() {
	m := perf.Machine{Name: "unit", Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-10}
	c := perf.Cost{Flops: 1_000_000, Messages: 100, Words: 500_000}
	fmt.Printf("T = %.4g s\n", m.Seconds(c))
	// Output:
	// T = 0.0007 s
}

// ExampleRCSFISTACost shows the Table 1 latency reduction: k divides
// the message count, the word count — d(d+1)/2 packed Hessian words
// plus the d-word R per iteration — is unchanged.
func ExampleRCSFISTACost() {
	base := perf.AlgoParams{N: 128, P: 64, D: 54, MBar: 600, Fill: 0.22, K: 1, S: 1}
	over := base
	over.K = 8
	c1 := perf.RCSFISTACost(base)
	c8 := perf.RCSFISTACost(over)
	fmt.Printf("k=1: L=%d W=%d\n", c1.Messages, c1.Words)
	fmt.Printf("k=8: L=%d W=%d\n", c8.Messages, c8.Words)
	// Output:
	// k=1: L=768 W=1181952
	// k=8: L=96 W=1181952
}
