package dist

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// The collectives of Comm, written once for every backend. A backend
// supplies one data-movement primitive, exchange; everything a caller
// can observe — who combines what in which order, the P = 1 return, the
// length-mismatch panic, the profile entry and the cost charge — is
// here. Three patterns cover the five small collectives: all→all
// (Barrier, Allreduce, Allgather), root→all (Bcast) and all→root
// (Reduce). Every rank that receives combines locally, in ascending
// rank order starting from rank 0's contribution (from its own buffer
// for Reduce's root), so a result is the same arithmetic sequence on
// every rank of every backend, bit for bit, with no rank in the middle:
// one hop, where a hub took two. All ranks issue collectives in the
// same program order (the MPI contract), which is all the matching-up
// a backend needs.

// allRanks, as a rank set, is every rank of the world; any other value
// is the set holding that one rank.
const allRanks = -1

// inSet reports whether rank r belongs to the rank set s.
func inSet(s, r int) bool { return s == allRanks || s == r }

// exchanger is what a backend supplies to collectives.
type exchanger interface {
	Rank() int
	Size() int
	Cost() *perf.Cost
	// exchange delivers local from every rank in src to every rank in
	// dst. On a rank in dst it returns the contributions of the ranks
	// in src indexed by rank, the caller's own slot holding local; they
	// are read-only and valid until release. On any other rank the
	// return value must not be read. Never called at Size() == 1.
	exchange(local []float64, src, dst int) [][]float64
	// release hands back what exchange returned. Every rank calls it
	// once per exchange, and may touch local again only afterwards.
	release(bufs [][]float64)
	// postShared posts the shared sum-allreduce of local at tier t,
	// recording it under profile kind base + tier at Wait. Never called
	// at Size() == 1.
	postShared(local []float64, t Tier, base int) *Request
}

// collectives gives an embedding communicator the collective half of
// Comm over its exchanger, and through tierForwarders the per-tier
// capability methods.
type collectives struct {
	tierForwarders
	on      exchanger
	prof    *profile
	scratch []float64 // Allreduce's result while peers still read buf
}

// bind points the collectives at the communicator embedding them.
func (c *collectives) bind(on exchanger, prof *profile) {
	c.on, c.prof, c.to = on, prof, c
}

// checkLen panics with collective name's length-mismatch diagnostic
// unless rank r's n-value buffer is as long as rank ref's.
func checkLen(name string, ref, nref, r, n int) {
	if n != nref {
		panic(fmt.Sprintf("dist: %s length mismatch: rank %d has %d, rank %d has %d", name, ref, nref, r, n))
	}
}

// Barrier synchronizes all ranks: an all→all exchange of nothing.
// Charges a log2(P)-depth synchronization (1 word per message).
func (c *collectives) Barrier() {
	p := c.on.Size()
	if p == 1 {
		return
	}
	c.on.release(c.on.exchange(nil, allRanks, allRanks))
	c.prof.record(kindBarrier, 0)
	chargeBarrier(c.on.Cost(), p)
}

// Allreduce combines buf across ranks element-wise with op and leaves
// the result in every rank's buf. Cost: recursive doubling — log2(P)
// messages of len(buf) words plus the reduction flops.
func (c *collectives) Allreduce(buf []float64, op Op) {
	p := c.on.Size()
	if p == 1 {
		return
	}
	bufs := c.on.exchange(buf, allRanks, allRanks)
	for r, b := range bufs {
		checkLen("Allreduce", 0, len(bufs[0]), r, len(b))
	}
	if cap(c.scratch) < len(buf) {
		c.scratch = make([]float64, len(buf))
	}
	res := c.scratch[:len(buf)]
	copy(res, bufs[0])
	for _, b := range bufs[1:] {
		op.combine(res, b)
	}
	c.on.release(bufs)
	copy(buf, res)
	c.prof.record(kindAllreduce, len(buf))
	chargeAllreduceTier(c.on.Cost(), p, len(buf), TierF64)
}

// Bcast copies root's buf into every rank's buf. Cost: binomial tree —
// log2(P) messages of len(buf) words.
func (c *collectives) Bcast(buf []float64, root int) {
	p := c.on.Size()
	if p == 1 {
		return
	}
	bufs := c.on.exchange(buf, root, allRanks)
	if rank := c.on.Rank(); rank != root {
		checkLen("Bcast", root, len(bufs[root]), rank, len(buf))
		copy(buf, bufs[root])
	}
	c.on.release(bufs)
	c.prof.record(kindBcast, len(buf))
	chargeBcast(c.on.Cost(), p, len(buf))
}

// Reduce combines buf across ranks with op into root's buf; the other
// ranks' buffers are unchanged, and over a network they do not wait for
// the result. Cost: binomial tree — log2(P) messages plus reduction
// flops.
func (c *collectives) Reduce(buf []float64, op Op, root int) {
	p := c.on.Size()
	if p == 1 {
		return
	}
	bufs := c.on.exchange(buf, allRanks, root)
	if c.on.Rank() == root {
		for r, b := range bufs {
			if r != root {
				checkLen("Reduce", root, len(buf), r, len(b))
				op.combine(buf, b)
			}
		}
	}
	c.on.release(bufs)
	c.prof.record(kindReduce, len(buf))
	chargeReduce(c.on.Cost(), p, len(buf))
}

// Allgather concatenates every rank's local slice in rank order and
// returns the concatenation, a fresh slice per rank; local lengths may
// differ. Cost: ring — P-1 messages, moving the full concatenation
// minus the local part.
func (c *collectives) Allgather(local []float64) []float64 {
	p := c.on.Size()
	if p == 1 {
		return append(make([]float64, 0, len(local)), local...)
	}
	bufs := c.on.exchange(local, allRanks, allRanks)
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]float64, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	c.on.release(bufs)
	c.prof.record(kindAllgather, len(local))
	chargeAllgather(c.on.Cost(), p, len(local), total)
	return out
}

// AllreduceShared sums local across ranks and returns a freshly
// allocated result slice every rank must treat as read-only (one slice
// shared by all ranks in process, one physical copy per rank over a
// network). Communication cost is identical to Allreduce.
func (c *collectives) AllreduceShared(local []float64) []float64 {
	return c.allreduceSharedTier(local, TierF64)
}

// IAllreduceShared posts the nonblocking sum-allreduce. Wait charges
// the same recursive-doubling tree cost AllreduceShared charges and
// returns the same bits. Requests resolve in post order per rank; every
// posted request must be waited before the rank's Run function returns.
func (c *collectives) IAllreduceShared(local []float64) *Request {
	return c.iallreduceSharedTier(local, TierF64)
}

// allreduceSharedTier is post + Wait: the blocking and nonblocking
// shared allreduce are the same statements on every backend, so only
// the profile kind tells them apart.
func (c *collectives) allreduceSharedTier(local []float64, t Tier) []float64 {
	return c.post(local, t, kindAllreduceShared).Wait()
}

func (c *collectives) iallreduceSharedTier(local []float64, t Tier) *Request {
	return c.post(local, t, kindIAllreduceShared)
}

// post is the shared allreduce at every tier. A lone rank still
// observes the quantization the collective promises (combineOne), so
// P = 1 and P > 1 agree on what reaches the iterates.
func (c *collectives) post(local []float64, t Tier, base int) *Request {
	if c.on.Size() == 1 {
		return completedRequest(combineOne(local, t))
	}
	return c.on.postShared(local, t, base)
}
