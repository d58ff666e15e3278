package dist

import "github.com/hpcgo/rcsfista/internal/perf"

// This file is the single source of truth for per-operation cost
// bookkeeping. The collectives shared by every backend (collective.go)
// and each backend's shared allreduce charge through these helpers, and
// the stage-C exchanger prices a lost attempt with AllreduceCostTier,
// so the alpha-beta-gamma counters cannot drift between transports:
// the conformance suite asserts per-rank cost equality across backends
// for the whole collective surface.

// chargeTree charges the cost of a log2(P)-depth tree collective moving
// words payload words at each of the lg levels, with optional reduction
// flops (n adds per level).
func chargeTree(cost *perf.Cost, p int, words int64, reduceFlops bool) {
	lg := int64(perf.Log2Ceil(p))
	if lg == 0 {
		return
	}
	cost.AddMessages(lg, words)
	if reduceFlops {
		cost.AddFlops(lg * words)
	}
}

// chargeBarrier charges a log2(P)-depth synchronization (1 word per
// message, no reduction flops).
func chargeBarrier(cost *perf.Cost, p int) {
	chargeTree(cost, p, 1, false)
}

// chargeBcast charges a binomial-tree broadcast of words payload words.
func chargeBcast(cost *perf.Cost, p int, words int) {
	chargeTree(cost, p, int64(words), false)
}

// chargeReduce charges a binomial-tree reduction of words payload words
// (messages plus reduction flops).
func chargeReduce(cost *perf.Cost, p int, words int) {
	chargeTree(cost, p, int64(words), true)
}

// chargeAllgather charges one rank's share of a ring allgather: P-1
// messages moving the full concatenation minus the local part. The
// exact word total is charged, not a truncated per-message average.
func chargeAllgather(cost *perf.Cost, p int, localWords, totalWords int) {
	cost.Messages += int64(p - 1)
	cost.Words += int64(totalWords - localWords)
}

// chargeP2P charges one point-to-point message of words payload words
// (both the send and the receive side charge it, as MPI counts do).
func chargeP2P(cost *perf.Cost, words int) {
	cost.AddMessages(1, int64(words))
}

// AllreduceCost returns the alpha-beta-gamma cost one rank is charged
// for a full-precision tree allreduce of words payload words on p
// ranks (AllreduceCostTier at TierF64).
func AllreduceCost(p, words int) perf.Cost {
	return AllreduceCostTier(p, words, TierF64)
}
