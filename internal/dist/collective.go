package dist

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// The collectives of Comm, written once for every backend. A backend
// supplies the data movement — exchange, and the transport half of the
// shared allreduce (postShared); everything a caller can observe — who
// combines what in which order, the P = 1 return, the length and tier
// checks, the profile entry and the cost charge — is here. Three
// patterns cover the five small collectives: all→all
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
	// postShared posts the shared sum-allreduce of local at tier t and
	// returns what Wait runs to complete it: move the contributions to
	// the segment owners, have each owner call reduceSegment, and
	// gather the owned sums into the result. Never called at
	// Size() == 1.
	postShared(local []float64, t Tier) func() []float64
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
// returns the same bits. Every rank waits its requests in the same
// order among its collectives; one never waited is dropped with its Run.
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

// post is the shared allreduce at every tier, recorded under profile
// kind base + tier and charged at Wait. A lone rank still observes the
// quantization the collective promises (combineOne), so P = 1 and
// P > 1 agree on what reaches the iterates.
func (c *collectives) post(local []float64, t Tier, base int) *Request {
	p := c.on.Size()
	if p == 1 {
		return completedRequest(combineOne(local, t))
	}
	wait := c.on.postShared(local, t)
	return &Request{wait: func() []float64 {
		res := wait()
		c.prof.record(sharedKind(base, t), len(local))
		chargeAllreduceTier(c.on.Cost(), p, len(local), t)
		return res
	}}
}

// The shared sum-allreduce is a segment-owner reduce-scatter +
// allgather on every backend: segBounds deals the payload out in rank
// order, each owner folds every rank's slice of its segment
// (reduceSegment), and every rank returns the owned sums side by side.
// A backend only moves the data (tcpshared.go, world.go).

// segGranule is the unit segments are dealt in, in values. Boundaries
// on multiples of it are i8 chunk boundaries (it is a multiple of
// perf.I8ChunkLen), so a segment quantizes exactly as that range of the
// whole payload; and a payload of at most one granule — every scalar
// and vector collective — has rank 0 as its single owner and costs the
// two messages per rank a hub would.
const segGranule = 4096

// segBounds returns the segment [lo, hi) of an n-value payload that
// rank r of p owns: the ceil(n/segGranule) granules are dealt out in
// rank order, contiguously, the first (granules mod p) ranks taking one
// more than the rest, and the last granule is cut at n. Ranks beyond
// the granule count own nothing (lo == hi).
func segBounds(n, p, r int) (lo, hi int) {
	g := (n + segGranule - 1) / segGranule
	base, rem := g/p, g%p
	lo = (r*base + min(r, rem)) * segGranule
	hi = lo + base*segGranule
	if r < rem {
		hi += segGranule
	}
	return min(lo, n), min(hi, n)
}

// segOwner reports whether rank r publishes a result segment of an
// n-value payload: it owns values, or it is rank 0, which answers for
// an empty payload so that a zero-length collective still synchronizes.
func segOwner(n, p, r int) bool {
	lo, hi := segBounds(n, p, r)
	return r == 0 || lo < hi
}

// takesContrib reports whether rank r, holding an n-value payload,
// receives and checks the other ranks' slices of its segment. From one
// granule up that is every rank, an empty slice for a rank that owns
// nothing: each rank then sees every peer's view of its own segment, so
// ranks that disagree on n (or on the tier) are found out by whichever
// of them owns a range the two views cut differently — without the
// slices to non-owners, a rank that owns values only in its own view
// would wait for contributions no peer will ever send. Below one
// granule rank 0 sees every contribution whole, which is the same
// check.
func takesContrib(n, r int) bool { return n >= segGranule || r == 0 }

// reduceSegment is combine restricted to the segment of res that rank
// owns, on every backend. contrib[q] is rank q's contribution, entered
// at tier specs[q]: a whole RAW payload for this rank, and for the
// others too when raw is set (chan); otherwise rank q's slice of the
// segment as the frame decode delivered it, already round(slice) (tcp).
// A tier or a segment length that differs from this rank's panics with
// a diagnostic naming both ranks. Contributions are taken in ascending
// rank order, a RAW one quantized here — copied in for rank 0 (not
// summed into zeros, which would lose the sign of zero), added
// otherwise. An owner hands publish the RAW sum before quantizing it
// once more in place: a tcp result frame's encode is that downlink
// quantization, and the i8 codec is not idempotent. All of it at the
// segment's offset, so i8 chunk scales and dither are the whole
// payload's.
func reduceSegment(res []float64, rank int, contrib [][]float64, specs []*tierSpec, raw bool, publish func(seg []float64, lo int)) {
	p, spec, n := len(contrib), specs[rank], len(contrib[rank])
	lo, hi := segBounds(n, p, rank)
	owned := hi - lo
	// Cut res at its own bounds, which are this rank's whenever the
	// payload lengths agree: chan's result is rank 0's slice, and a
	// rank dissenting on the length must not index past it.
	lo, hi = segBounds(len(res), p, rank)
	seg := res[lo:hi]
	for q, x := range contrib {
		whole := raw || q == rank
		if whole {
			xlo, xhi := segBounds(len(x), p, rank)
			x = x[xlo:xhi]
		}
		switch {
		case specs[q] != spec:
			panic(fmt.Sprintf("dist: AllreduceShared tier mismatch: rank %d runs %s, rank %d runs %s",
				rank, spec.name, q, specs[q].name))
		case len(x) != owned:
			panic(fmt.Sprintf("dist: AllreduceShared length mismatch: rank %d has %d values and owns %d of them, rank %d sent %d",
				rank, n, owned, q, len(x)))
		case whole && q == 0:
			spec.round(seg, x, lo)
		case whole:
			spec.addRounded(seg, x, lo)
		case q == 0:
			copy(seg, x)
		default:
			OpSum.combine(seg, x)
		}
	}
	if publish != nil && segOwner(len(res), p, rank) {
		publish(seg, lo)
	}
	spec.round(seg, seg, lo)
}
