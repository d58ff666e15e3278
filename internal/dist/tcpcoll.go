package dist

import "fmt"

// TCP collectives. Every collective in this file is hub-based:
// contributors send FrameContrib to the hub (rank 0, or the call's
// root), the hub combines in ascending rank order starting from its own
// buffer — the exact arithmetic sequence of the chan backend's
// reductions — and FrameResult carries the combined payload back. The
// shared sum-allreduce, which moves the Hessian batches, spreads the
// same rank-order sum over segment owners instead (tcpshared.go). All
// ranks issue collectives in identical program order (the MPI contract
// the chan backend already relies on), so a single per-rank sequence
// counter matches the frames up without any extra synchronization.
// Costs go through the same shared accounting helpers as the chan
// backend, which is what keeps the golden fixtures' Cost counters
// bit-identical across transports.

// collSeq consumes the next collective sequence number.
func (c *TCPComm) collSeq() uint32 {
	s := c.seq
	c.seq++
	return s
}

// bcastResult sends the hub's combined payload to every other rank in
// a result frame of the given kind.
func (c *TCPComm) bcastResult(seq uint32, kind FrameKind, payload []float64) {
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		c.sendTo(r, Frame{Kind: kind, Rank: uint32(c.rank), Seq: seq, Payload: payload})
	}
}

// Barrier synchronizes all ranks: a zero-payload gather at rank 0
// released by a zero-payload result. Charges a log2(P)-depth
// synchronization, identical to the chan backend.
func (c *TCPComm) Barrier() {
	if c.size == 1 {
		return
	}
	seq := c.collSeq()
	if c.rank == 0 {
		c.waitContribs(seq, FrameContrib)
		c.bcastResult(seq, FrameResult, nil)
	} else {
		c.sendTo(0, Frame{Kind: FrameContrib, Rank: uint32(c.rank), Seq: seq})
		c.waitResult(seq)
	}
	c.prof.record(kindBarrier, 0)
	chargeBarrier(&c.cost, c.size)
}

// Allreduce combines buf across ranks element-wise with op and leaves
// the result in every rank's buf. Rank 0 combines contributions in
// ascending rank order starting from its own buffer, so the result is
// bit-identical to the chan backend's.
func (c *TCPComm) Allreduce(buf []float64, op Op) {
	if c.size == 1 {
		return
	}
	seq := c.collSeq()
	if c.rank == 0 {
		set := c.waitContribs(seq, FrameContrib)
		res := make([]float64, len(buf))
		copy(res, buf)
		for r := 1; r < c.size; r++ {
			if len(set.bufs[r]) != len(buf) {
				panic(fmt.Sprintf("dist: Allreduce length mismatch: rank 0 has %d, rank %d has %d",
					len(buf), r, len(set.bufs[r])))
			}
			op.combine(res, set.bufs[r])
		}
		c.bcastResult(seq, FrameResult, res)
		copy(buf, res)
	} else {
		c.sendTo(0, Frame{Kind: FrameContrib, Rank: uint32(c.rank), Seq: seq, Payload: buf})
		res := c.waitResult(seq)
		if len(res) != len(buf) {
			panic(fmt.Sprintf("dist: Allreduce length mismatch: rank 0 has %d, rank %d has %d",
				len(res), c.rank, len(buf)))
		}
		copy(buf, res)
	}
	c.prof.record(kindAllreduce, len(buf))
	chargeAllreduce(&c.cost, c.size, len(buf))
}

// AllreduceShared sums local across ranks and returns a freshly
// allocated result slice every rank must treat as read-only. Values
// are bit-identical to the chan backend's shared slice; over TCP each
// rank necessarily holds its own physical copy.
func (c *TCPComm) AllreduceShared(local []float64) []float64 {
	return c.allreduceSharedTier(local, TierF64)
}

// IAllreduceShared posts the nonblocking sum-allreduce (postShared).
func (c *TCPComm) IAllreduceShared(local []float64) *Request {
	return c.iallreduceSharedTier(local, TierF64)
}

// allreduceSharedTier is post + Wait: on this backend the blocking and
// nonblocking collectives are the same statements, so only the profile
// kind tells them apart.
func (c *TCPComm) allreduceSharedTier(local []float64, tier Tier) []float64 {
	return c.postShared(local, tier, kindAllreduceShared).Wait()
}

func (c *TCPComm) iallreduceSharedTier(local []float64, tier Tier) *Request {
	return c.postShared(local, tier, kindIAllreduceShared)
}

// Bcast copies root's buf into every rank's buf.
func (c *TCPComm) Bcast(buf []float64, root int) {
	if c.size == 1 {
		return
	}
	seq := c.collSeq()
	if c.rank == root {
		c.bcastResult(seq, FrameResult, buf)
	} else {
		res := c.waitResult(seq)
		if len(res) != len(buf) {
			panic("dist: Bcast length mismatch")
		}
		copy(buf, res)
	}
	c.prof.record(kindBcast, len(buf))
	chargeBcast(&c.cost, c.size, len(buf))
}

// Reduce combines buf across ranks with op into root's buf; other
// ranks' buffers are unchanged and do not wait for the result. The
// root combines in ascending rank order (skipping itself), matching
// the chan backend bit for bit.
func (c *TCPComm) Reduce(buf []float64, op Op, root int) {
	if c.size == 1 {
		return
	}
	seq := c.collSeq()
	if c.rank == root {
		set := c.waitContribs(seq, FrameContrib)
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			if len(set.bufs[r]) != len(buf) {
				panic("dist: Reduce length mismatch")
			}
			op.combine(buf, set.bufs[r])
		}
	} else {
		c.sendTo(root, Frame{Kind: FrameContrib, Rank: uint32(c.rank), Seq: seq, Payload: buf})
	}
	c.prof.record(kindReduce, len(buf))
	chargeReduce(&c.cost, c.size, len(buf))
}

// Allgather concatenates every rank's local slice in rank order and
// returns the concatenation to all ranks.
func (c *TCPComm) Allgather(local []float64) []float64 {
	if c.size == 1 {
		out := make([]float64, len(local))
		copy(out, local)
		return out
	}
	seq := c.collSeq()
	var out []float64
	if c.rank == 0 {
		set := c.waitContribs(seq, FrameContrib)
		total := len(local)
		for r := 1; r < c.size; r++ {
			total += len(set.bufs[r])
		}
		out = make([]float64, 0, total)
		out = append(out, local...)
		for r := 1; r < c.size; r++ {
			out = append(out, set.bufs[r]...)
		}
		c.bcastResult(seq, FrameResult, out)
	} else {
		c.sendTo(0, Frame{Kind: FrameContrib, Rank: uint32(c.rank), Seq: seq, Payload: local})
		out = c.waitResult(seq)
	}
	c.prof.record(kindAllgather, len(local))
	chargeAllgather(&c.cost, c.size, len(local), len(out))
	return out
}
