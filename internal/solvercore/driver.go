package solvercore

import (
	"context"
	"errors"
	"sync"

	"github.com/hpcgo/rcsfista/internal/dist"
)

// RunWorld executes one solve per rank on the world and assembles rank
// 0's result with world-level critical-path costs (component-wise max
// over ranks, on the world's machine model). World costs are reset
// first, so the modeled time covers exactly this solve.
//
// Cancellation is handled without aborting the world: the vote every
// round carries guarantees every rank returns a context error at the
// same round, so the ranks are joined cleanly — aborting would release
// slower ranks from the round's collective itself and lose their
// partial results. Rank 0's partial result is returned together
// with the context error. Non-context errors abort the world as
// before.
func RunWorld(w dist.World, solve func(c dist.Comm) (*Result, error)) (*Result, error) {
	results := make([]*Result, w.Size())
	rankErrs := make([]error, w.Size())
	var mu sync.Mutex
	w.ResetCosts()
	err := w.Run(func(c dist.Comm) error {
		res, rerr := solve(c)
		mu.Lock()
		results[c.Rank()] = res
		rankErrs[c.Rank()] = rerr
		mu.Unlock()
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			return nil
		}
		return rerr
	})
	if err == nil {
		for _, rerr := range rankErrs {
			if rerr != nil {
				err = rerr
				break
			}
		}
	}
	root := results[0]
	if root == nil {
		return nil, err
	}
	root.Cost = w.MaxCost()
	root.ModelSeconds = w.ModeledSeconds()
	return root, err
}
