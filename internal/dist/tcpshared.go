package dist

import "fmt"

// The transport half of the shared sum-allreduce over TCP, whose
// schedule is collective.go's: contribution and result frames, and the
// posted ops the reader goroutines decode result segments into.

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

// postShared ships each owner the RAW slice of local that owner sums,
// in the tier's contribution frame, and overlaps compute with the
// transfer — encoding the frame IS the uplink quantization, so the
// owner's reader decodes exactly round(slice). At Wait this rank folds
// the segment it owns (reduceSegment over the decoded slices), sends
// the RAW sum to every peer in the tier's result frame, whose encode is
// the downlink quantization, and waits for the other owners' segments.
func (c *TCPComm) postShared(local []float64, tier Tier) func() []float64 {
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
	return func() []float64 {
		if takesContrib(n, c.rank) {
			set := c.waitContribs(seq, allRanks)
			set.bufs[c.rank], set.specs[c.rank] = local, spec
			reduceSegment(op.res, c.rank, set.bufs, set.specs, false, func(seg []float64, lo int) {
				for i := 1; i < c.size; i++ {
					r := (c.rank + i) % c.size
					c.sendAt(r, Frame{Kind: spec.result, Rank: uint32(c.rank), Seq: seq, Payload: seg}, lo)
				}
			})
			c.release(set.bufs)
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
		return op.res
	}
}
