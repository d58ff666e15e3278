package dist

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"
)

// The receive side of TCPComm: one reader goroutine per mesh
// connection, and the recycled buffers contributions are decoded into.

// readLoop drains one mesh connection, demultiplexing frames into the
// contribution sets, the posted shared allreduces and the point-to-point
// queues.
func (c *TCPComm) readLoop(peer int, conn net.Conn) {
	defer c.wg.Done()
	fr := frameReader{r: bufio.NewReaderSize(conn, 1<<16)}
	for {
		if c.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
		}
		f, nwords, err := fr.header()
		if err == io.EOF {
			// The peer finished its program and closed cleanly
			// between frames; everything it sent is already
			// delivered (TCP flushes before FIN). Ranks finish at
			// different times, so this is the normal shutdown
			// path, not a failure. A peer that dies mid-frame
			// surfaces as io.ErrUnexpectedEOF instead.
			return
		}
		if err == nil {
			err = c.deliver(&fr, peer, f, nwords)
		}
		if err != nil {
			c.fail(peer, "read", err)
			return
		}
	}
}

// deliver reads the nwords-value body of frame f, whose header fr just
// returned on the connection to peer, and files it. Nothing a header
// claims is trusted: the sender must be the connection's peer (its rank
// selects which contribution slot or result range the payload lands
// in), a second contribution or result segment for one collective is
// refused, and so is a result for a collective this rank has not
// posted, so a corrupt, forged or replayed frame fails the world with a
// TransportError instead of indexing out of range, overwriting a
// delivered result or parking a payload nobody will free.
func (c *TCPComm) deliver(fr *frameReader, peer int, f Frame, nwords int) error {
	if f.Rank != uint32(peer) {
		return fmt.Errorf("frame claims sender rank %d on the connection to rank %d", f.Rank, peer)
	}
	kind, seq := f.Kind, f.Seq
	switch codec := kind.codec(); kind {
	case codec.contrib:
		// A peer makes at most one contribution to a collective and
		// issues collectives in sequence order, so the contribution
		// frames of one connection carry strictly increasing sequence
		// numbers.
		next := &c.peers[peer].nextContrib
		if int32(seq-*next) < 0 {
			return fmt.Errorf("contribution to collective %d after one to collective %d", seq, *next-1)
		}
		*next = seq + 1
		payload := c.getBuf(nwords)
		if err := fr.payload(kind, payload); err != nil {
			return err
		}
		c.addContrib(peer, seq, codec, payload)
	case codec.result:
		c.mu.Lock()
		op := c.ops[seq]
		c.mu.Unlock()
		if op == nil {
			// A result answers this rank's own contribution, which it
			// sends after posting: nothing legitimate arrives earlier.
			return fmt.Errorf("%s result for collective %d, which rank %d has not posted", codec.name, seq, c.rank)
		}
		seg, err := c.resultSegment(op, peer, seq, kind, nwords)
		if err == nil {
			err = fr.payload(kind, seg)
		}
		if err != nil {
			return err
		}
		c.segmentDone(op)
	case FrameP2P:
		payload, err := fr.fresh(kind, nwords)
		if err != nil {
			return err
		}
		select {
		case c.p2pq[peer] <- payload:
		case <-c.abort:
			return errAborted
		}
	default:
		return fmt.Errorf("unexpected %d frame mid-stream", kind)
	}
	return nil
}

// getBuf returns an n-value buffer for a contribution payload, a
// recycled one when one fits without wasting more than half of it.
func (c *TCPComm) getBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	for i, b := range c.free {
		if cap(b) >= n && cap(b) <= 2*n {
			last := len(c.free) - 1
			c.free[i], c.free[last] = c.free[last], nil
			c.free = c.free[:last]
			c.mu.Unlock()
			return b[:n]
		}
	}
	c.mu.Unlock()
	return make([]float64, n)
}

// putBuf recycles a contribution buffer its combiner is done with. The
// list holds what two collectives in flight can have outstanding; past
// that the oldest entry is overwritten, so buffers of a payload size
// the program has stopped using age out.
func (c *TCPComm) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.free) < 2*c.size {
		c.free = append(c.free, b)
	} else {
		c.free[c.evict%len(c.free)] = b
		c.evict++
	}
	c.mu.Unlock()
}
