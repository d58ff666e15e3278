package dist

import "fmt"

// The shared sum-allreduce over TCP is a segment-owner reduce-scatter +
// allgather on the full mesh. segBounds deals the n-value payload out
// in rank order; at post every rank sends each owner its slice of that
// owner's segment, at Wait an owner sums the P contributions to its
// segment in ascending rank order and sends the sum to every peer.
// Per rank that is 2n(P-1)/P words out and as many in, all P links
// busy at once, where a rank-0 hub moved (P-1)n words each way through
// one rank while the others idled.

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

// segOwner reports whether rank r sends a result segment of an n-value
// payload: it owns values, or it is rank 0, which answers for an empty
// payload so that a zero-length collective still synchronizes.
func segOwner(n, p, r int) bool {
	lo, hi := segBounds(n, p, r)
	return r == 0 || lo < hi
}

// takesContrib reports whether rank r is sent a contribution frame for
// an n-value payload. From one granule up that is every rank, an empty
// frame for a rank that owns nothing: each rank then sees every peer's
// view of its own segment, so ranks that disagree on n (or on the
// tier) are found out by whichever of them owns a range the two views
// cut differently — without the frames to non-owners, a rank that owns
// values only in its own view would wait for contributions no peer
// will ever send. Below one granule rank 0 sees every contribution
// whole, which is the same check.
func takesContrib(n, r int) bool { return n >= segGranule || r == 0 }

// sharedOp is one posted shared allreduce. It is registered under its
// sequence number from post until Wait returns, which is how the
// reader goroutines find the buffer to decode result segments into.
type sharedOp struct {
	spec *tierSpec
	res  []float64 // the result the caller keeps; owners' segments land here
	// got[r]: owner r's result segment has arrived. Touched only by the
	// reader of the connection to r, so it needs no lock.
	got  []bool
	need int           // result segments still outstanding (guarded by TCPComm.mu)
	done chan struct{} // closed when need reaches zero
}

// registerShared allocates the result buffer of collective seq and
// publishes the op to the readers. It must run before the first
// contribution is sent: an owner answers as soon as it holds all P
// contributions, and its result segment must find the op.
func (c *TCPComm) registerShared(seq uint32, spec *tierSpec, n int) *sharedOp {
	op := &sharedOp{spec: spec, res: make([]float64, n), got: make([]bool, c.size), done: make(chan struct{})}
	for r := 0; r < c.size; r++ {
		if r != c.rank && segOwner(n, c.size, r) {
			op.need++
		}
	}
	if op.need == 0 {
		close(op.done)
	}
	c.mu.Lock()
	c.ops[seq] = op
	c.mu.Unlock()
	return op
}

// resultSegment validates a result frame of nwords values from owner
// peer against the posted op, marks the segment as arriving and returns
// the range of the result buffer it decodes into. Called by the reader
// of that peer's connection; segments of different owners are disjoint,
// so readers and the waiting rank write the buffer without a lock.
func (c *TCPComm) resultSegment(op *sharedOp, peer int, seq uint32, kind FrameKind, nwords int) ([]float64, error) {
	n := len(op.res)
	lo, hi := segBounds(n, c.size, peer)
	switch {
	case kind != op.spec.result:
		return nil, tierMismatch(seq, c.rank, op.spec.result, peer, kind)
	case !segOwner(n, c.size, peer) || nwords != hi-lo:
		return nil, fmt.Errorf("AllreduceShared length mismatch in collective %d: rank %d has %d values, so rank %d owns %d, but it sent a %d-value result",
			seq, c.rank, n, peer, hi-lo, nwords)
	case op.got[peer]:
		return nil, fmt.Errorf("second result segment for collective %d", seq)
	}
	op.got[peer] = true
	return op.res[lo:hi], nil
}

// segmentDone records that one result segment of op is fully decoded.
func (c *TCPComm) segmentDone(op *sharedOp) {
	c.mu.Lock()
	op.need--
	done := op.need == 0
	c.mu.Unlock()
	if done {
		close(op.done)
	}
}

// tierMismatch is the diagnostic for a frame of kind got from rank peer
// in a collective that rank runs at the tier of frame kind want: a peer
// that entered the collective at another tier (multi-process mode takes
// the tier per OS process) must not be summed into a quietly wrong
// result.
func tierMismatch(seq uint32, rank int, want FrameKind, peer int, got FrameKind) error {
	return fmt.Errorf("tier mismatch in collective %d: rank %d runs %s, rank %d sent %s",
		seq, rank, want.codec().name, peer, got.codec().name)
}

// postShared is the shared sum-allreduce at every tier. At post a rank
// ships each owner the RAW slice of its payload that owner sums, in the
// tier's contribution frame, and overlaps compute with the transfer —
// encoding the frame IS the uplink quantization, so the owner's reader
// decodes exactly round(slice). Cost is charged at Wait, exactly like
// the chan backend.
func (c *TCPComm) postShared(local []float64, tier Tier, base int) *Request {
	spec, n, seq := &tiers[tier], len(local), c.collSeq()
	op := c.registerShared(seq, spec, n)
	// Start at the next rank up so the P ranks do not all write to
	// rank 0 first.
	for i := 1; i < c.size; i++ {
		if r := (c.rank + i) % c.size; takesContrib(n, r) {
			lo, hi := segBounds(n, c.size, r)
			c.sendAt(r, Frame{Kind: spec.contrib, Rank: uint32(c.rank), Seq: seq, Payload: local[lo:hi]}, lo)
		}
	}
	return &Request{wait: func() []float64 {
		c.waitShared(op, seq, local)
		c.prof.record(sharedKind(base, tier), n)
		chargeAllreduceTier(&c.cost, c.size, n, tier)
		return op.res
	}}
}

// waitShared completes collective seq: sum and publish the segment this
// rank owns, then wait for the other owners' segments. The sum is
// combine restricted to the segment, with the roundings the codec
// already applied left out: contributions are taken in ascending rank
// order, remote ones as decoded (already round(slice)), this rank's own
// quantized in process at its rank position — copied in for rank 0 (not
// summed into zeros, which would lose the sign of zero), added
// otherwise. The RAW sum goes out in the tier's result frame, whose
// encode is the single downlink quantization, so every peer decodes
// exactly the round(sum) this rank keeps by rounding its copy in
// process. (Sending a pre-quantized sum would quantize it again on the
// wire, and the i8 codec is not idempotent.) All of it at the segment's
// offset, so the i8 chunk scales and dither are the whole payload's and
// the result is bit-identical to the chan backend's.
func (c *TCPComm) waitShared(op *sharedOp, seq uint32, local []float64) {
	spec, n := op.spec, len(local)
	if takesContrib(n, c.rank) {
		set := c.waitContribs(seq, spec.contrib, allRanks)
		lo, hi := segBounds(n, c.size, c.rank)
		seg, mine := op.res[lo:hi], local[lo:hi]
		for r := 0; r < c.size; r++ {
			if r != c.rank && len(set.bufs[r]) != len(seg) {
				panic(fmt.Sprintf("dist: AllreduceShared length mismatch in collective %d: rank %d has %d values and owns %d of them, rank %d sent %d",
					seq, c.rank, n, len(seg), r, len(set.bufs[r])))
			}
		}
		for r := 0; r < c.size; r++ {
			switch {
			case r != c.rank && r == 0:
				copy(seg, set.bufs[r])
			case r != c.rank:
				OpSum.combine(seg, set.bufs[r])
			case r == 0:
				spec.round(seg, mine, lo)
			default:
				spec.addRounded(seg, mine, lo)
			}
			c.putBuf(set.bufs[r])
		}
		if segOwner(n, c.size, c.rank) {
			for i := 1; i < c.size; i++ {
				r := (c.rank + i) % c.size
				c.sendAt(r, Frame{Kind: spec.result, Rank: uint32(c.rank), Seq: seq, Payload: seg}, lo)
			}
			spec.round(seg, seg, lo)
		}
	}
	select {
	case <-op.done:
	case <-c.abort:
		// Delivered data wins over a concurrent abort (waitContribs).
		select {
		case <-op.done:
		default:
			c.abortPanic()
		}
	}
	c.mu.Lock()
	delete(c.ops, seq)
	c.mu.Unlock()
}
