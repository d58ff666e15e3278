package solver

import (
	"context"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// SolveDistributed partitions (x, y) column-wise across the world's
// ranks and runs RC-SFISTA on all of them. The returned result is rank
// 0's (which carries the trace), with the cost fields replaced by the
// world's critical path: component-wise max over ranks, evaluated on
// the world's machine model. World costs are reset first, so the
// modeled time covers exactly this solve.
func SolveDistributed(w dist.World, x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	return SolveDistributedContext(context.Background(), w, x, y, opts)
}

// SolveDistributedContext is SolveDistributed under a context. On
// cancellation the ranks agree to stop at the same round boundary and
// every rank returns a well-formed partial result; rank 0's partial
// result is returned together with the context's error.
func SolveDistributedContext(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	return solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		return RCSFISTAContext(ctx, c, Partition(x, y, c.Size(), c.Rank()), opts)
	})
}

// SolvePNDistributed is SolveDistributed for the distributed Proximal
// Newton driver.
func SolvePNDistributed(w dist.World, x *sparse.CSC, y []float64, opts DistPNOptions) (*Result, error) {
	return SolvePNDistributedContext(context.Background(), w, x, y, opts)
}

// SolvePNDistributedContext is SolvePNDistributed under a context,
// with the partial-result contract of SolveDistributedContext.
func SolvePNDistributedContext(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts DistPNOptions) (*Result, error) {
	return solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		local := Partition(x, y, c.Size(), c.Rank())
		return DistProxNewtonContext(ctx, c, local, opts)
	})
}
