package dist

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TCPOptions tunes the TCP transport. The zero value selects the
// defaults, which suit localhost meshes.
type TCPOptions struct {
	// DialTimeout bounds mesh rendezvous: how long a rank retries
	// dialing a peer that has not started listening yet. Default 10s.
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline. A peer that stops
	// draining its socket for this long is declared lost and the
	// world aborts — the transport-level analogue of the fault layer's
	// declared-lost round timeout (DESIGN.md Section 7). Default 30s.
	WriteTimeout time.Duration
	// ReadTimeout, when positive, is a per-connection inactivity
	// deadline on reads. It must exceed the longest compute phase
	// between collectives, so it defaults to 0 (no deadline); set it
	// when a wedged peer should be detected rather than waited on.
	ReadTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// TransportError is the panic/error value raised when the TCP
// substrate fails: a peer vanished, a deadline expired, or a frame was
// malformed. Collectives blocked on the dead transport unwind with it.
type TransportError struct {
	// Rank is the local rank observing the failure.
	Rank int
	// Peer is the rank of the peer the failure was observed on, or -1.
	Peer int
	// Op describes the failing operation ("read", "write", "dial").
	Op string
	// Err is the underlying error.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dist: tcp transport rank %d: %s involving peer %d: %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// contribSet collects the remote contributions of one collective
// sequence number at a rank that combines them: a receiver of an
// exchange, or the owner of a shared-allreduce segment. Readers file
// contributions as they arrive, before or after the rank enters the
// collective; how many it takes is the waiter's to say (waitContribs).
type contribSet struct {
	bufs  [][]float64
	specs []*tierSpec // the tier each contribution arrived at, nil until it has
	got   int
	need  int // 0 until the waiter has said
	ready chan struct{}
}

// tcpPeer is one mesh connection with its write lock and reusable
// encode buffer.
type tcpPeer struct {
	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte
	// nextContrib is the least sequence number the peer's next
	// contribution frame may carry; only the connection's reader
	// touches it.
	nextContrib uint32
}

// TCPComm is one rank's communicator over a full TCP mesh. It runs the
// collectives collective.go defines — the shared sum-allreduce segment
// by segment at each segment's owner (its frames are tcpshared.go's),
// the rest combined by every rank that receives, from one contribution
// frame per sender (exchange) — so results are bit-for-bit identical to
// the in-process channels backend, and every operation charges the
// same shared accounting helpers — same message counts, same word
// counts. Create it through the "tcp" backend (in-process ranks over
// loopback) or Connect (one rank per OS process).
type TCPComm struct {
	collectives
	rank    int
	size    int
	machine perf.Machine
	cost    perf.Cost
	opts    TCPOptions

	peers []*tcpPeer // by rank; peers[rank] is nil
	seq   uint32     // next collective sequence number

	mu       sync.Mutex
	contribs map[uint32]*contribSet
	ops      map[uint32]*sharedOp // posted shared allreduces, until their Wait returns
	free     [][]float64          // recycled contribution buffers (getBuf/putBuf)
	evict    int                  // next free slot to overwrite once the list is full
	p2pq     []chan []float64     // per-source FIFO, buffered like the chan backend

	abort    chan struct{}
	abortMu  sync.Mutex
	abortVal any // the panic value waiters unwind with; guarded by abortMu
	closed   atomic.Bool
	wg       sync.WaitGroup
}

var _ Comm = (*TCPComm)(nil)

// newTCPComm wires a communicator over established mesh connections
// (conns[j] connects to rank j; conns[rank] ignored) and starts the
// per-connection reader goroutines.
func newTCPComm(rank, size int, conns []net.Conn, machine perf.Machine, opts TCPOptions, prof *profile) *TCPComm {
	if prof == nil {
		prof = &profile{}
	}
	c := &TCPComm{
		rank: rank, size: size, machine: machine, opts: opts.withDefaults(),
		peers:    make([]*tcpPeer, size),
		contribs: make(map[uint32]*contribSet),
		ops:      make(map[uint32]*sharedOp),
		p2pq:     make([]chan []float64, size),
		abort:    make(chan struct{}),
	}
	c.bind(c, prof)
	for r := 0; r < size; r++ {
		c.p2pq[r] = make(chan []float64, 64)
		if r == rank {
			continue
		}
		c.peers[r] = &tcpPeer{conn: conns[r]}
		c.wg.Add(1)
		go c.readLoop(r, conns[r])
	}
	return c
}

// Rank returns this process's rank in [0, Size).
func (c *TCPComm) Rank() int { return c.rank }

// Size returns the number of ranks P.
func (c *TCPComm) Size() int { return c.size }

// Cost exposes this rank's accumulated communication/compute cost.
func (c *TCPComm) Cost() *perf.Cost { return &c.cost }

// Machine returns the machine model used for cost accounting.
func (c *TCPComm) Machine() perf.Machine { return c.machine }

// SetMachine swaps the machine model, the hook Calibrate uses to
// replace an assumed profile with the measured one before a solve.
func (c *TCPComm) SetMachine(m perf.Machine) { c.machine = m }

// Close tears the mesh down: connections close, reader goroutines
// drain and exit. Collectives must all have completed on every rank
// first (the usual SPMD contract). Idempotent.
func (c *TCPComm) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	c.wg.Wait()
	c.abortWith(errAborted)
	return nil
}

// Abort releases every rank goroutine blocked in a collective with the
// errAborted unwind (the in-process worlds' abort protocol) and closes
// the connections. Used by the tcp world when a sibling rank fails.
func (c *TCPComm) Abort() {
	c.closed.Store(true)
	c.abortWith(errAborted)
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// abortWith publishes the panic value and releases waiters. The first
// value wins.
func (c *TCPComm) abortWith(val any) {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	if c.abortVal == nil {
		c.abortVal = val
		close(c.abort)
	}
}

// fail records a transport failure observed on the connection to peer
// and releases waiters. During a deliberate Close/Abort the error is
// the expected connection teardown and is swallowed.
func (c *TCPComm) fail(peer int, op string, err error) {
	if c.closed.Load() {
		return
	}
	c.abortWith(&TransportError{Rank: c.rank, Peer: peer, Op: op, Err: err})
}

// abortPanic unwinds the calling collective with the published abort
// value.
func (c *TCPComm) abortPanic() {
	c.abortMu.Lock()
	v := c.abortVal
	c.abortMu.Unlock()
	if v == nil {
		v = errAborted
	}
	panic(v)
}

// sendTo writes one frame to the peer, serialized per connection.
func (c *TCPComm) sendTo(rank int, f Frame) { c.sendAt(rank, f, 0) }

// sendAt is sendTo for a payload that is the slice at value offset off
// of a collective's payload (appendFrameAt). The frame is encoded in
// one pass into the connection's write buffer, which is kept.
func (c *TCPComm) sendAt(rank int, f Frame, off int) {
	p := c.peers[rank]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.wbuf = appendFrameAt(p.wbuf[:0], f, off)
	p.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	if _, err := p.conn.Write(p.wbuf); err != nil {
		c.fail(rank, "write", err)
		c.abortPanic()
	}
}

// collSeq consumes the next collective sequence number. All ranks
// issue collectives in identical program order, so one per-rank counter
// matches the frames up without any extra synchronization.
func (c *TCPComm) collSeq() uint32 {
	s := c.seq
	c.seq++
	return s
}

// exchange sends local in one contribution frame to every rank of dst
// if this rank is in src, then, if it is in dst, waits for the frames
// of the other ranks in src. A rank that only sends does not wait.
func (c *TCPComm) exchange(local []float64, src, dst int) [][]float64 {
	seq := c.collSeq()
	if inSet(src, c.rank) {
		// Start at the next rank up so the P ranks do not all write to
		// rank 0 first.
		for i := 1; i < c.size; i++ {
			if r := (c.rank + i) % c.size; inSet(dst, r) {
				c.sendTo(r, Frame{Kind: FrameContrib, Rank: uint32(c.rank), Seq: seq, Payload: local})
			}
		}
	}
	if !inSet(dst, c.rank) || src == c.rank {
		return nil
	}
	set := c.waitContribs(seq, src)
	for r, s := range set.specs {
		if s != nil && s != &tiers[TierF64] {
			panic(&TransportError{Rank: c.rank, Peer: r, Op: "combine", Err: tierMismatch(seq, c.rank, FrameContrib, r, s.contrib)})
		}
	}
	set.bufs[c.rank] = local
	return set.bufs
}

// release recycles the buffers the peers' contributions were decoded
// into.
func (c *TCPComm) release(bufs [][]float64) {
	for r, b := range bufs {
		if r != c.rank {
			c.putBuf(b)
		}
	}
}

// contribSetLocked returns (creating if needed) the contribution set of
// collective seq at this rank. The caller holds c.mu.
func (c *TCPComm) contribSetLocked(seq uint32) *contribSet {
	set, ok := c.contribs[seq]
	if !ok {
		set = &contribSet{bufs: make([][]float64, c.size), specs: make([]*tierSpec, c.size),
			ready: make(chan struct{})}
		c.contribs[seq] = set
	}
	return set
}

// addContrib records peer's contribution to collective seq, which
// arrived at the tier of spec.
func (c *TCPComm) addContrib(peer int, seq uint32, spec *tierSpec, payload []float64) {
	c.mu.Lock()
	set := c.contribSetLocked(seq)
	set.bufs[peer], set.specs[peer] = payload, spec
	set.got++
	done := set.got == set.need
	c.mu.Unlock()
	if done {
		close(set.ready)
	}
}

// waitContribs blocks until the contributions of the ranks in src
// (other than this one) to collective seq have arrived, then removes
// and returns the set. No other rank may have sent one; the tier each
// arrived at is the caller's to check.
func (c *TCPComm) waitContribs(seq uint32, src int) *contribSet {
	need := 1
	if src == allRanks {
		need = c.size - 1
	}
	c.mu.Lock()
	set := c.contribSetLocked(seq)
	set.need = need
	have := set.got >= need
	c.mu.Unlock()
	if !have {
		select {
		case <-set.ready:
		case <-c.abort:
			// Delivered data wins over a concurrent abort: a reader
			// delivers every frame before it can observe the peer's
			// shutdown EOF, so contributions demultiplexed before the
			// abort fired complete the set legitimately.
			select {
			case <-set.ready:
			default:
				c.abortPanic()
			}
		}
	}
	c.mu.Lock()
	delete(c.contribs, seq)
	c.mu.Unlock()
	for r, s := range set.specs {
		if s != nil && !inSet(src, r) {
			panic(&TransportError{Rank: c.rank, Peer: r, Op: "combine",
				Err: fmt.Errorf("contribution to collective %d from a rank that is not one of its senders", seq)})
		}
	}
	return set
}

// Send transmits a copy of msg to rank to (eager, buffered on the
// receiver). Self-sends queue locally, matching the chan backend.
func (c *TCPComm) Send(to int, msg []float64) {
	if to < 0 || to >= c.size {
		panic("dist: Send to invalid rank")
	}
	if to == c.rank {
		cp := make([]float64, len(msg))
		copy(cp, msg)
		select {
		case c.p2pq[c.rank] <- cp:
		case <-c.abort:
			c.abortPanic()
		}
	} else {
		c.sendTo(to, Frame{Kind: FrameP2P, Rank: uint32(c.rank), Payload: msg})
	}
	c.prof.record(kindSend, len(msg))
	chargeP2P(&c.cost, len(msg))
}

// Recv receives the next message sent by rank from. If the transport
// fails while waiting, Recv unwinds instead of deadlocking.
func (c *TCPComm) Recv(from int) []float64 {
	if from < 0 || from >= c.size {
		panic("dist: Recv from invalid rank")
	}
	var msg []float64
	select {
	case msg = <-c.p2pq[from]:
	case <-c.abort:
		select {
		case msg = <-c.p2pq[from]: // delivered before the abort: valid
		default:
			c.abortPanic()
		}
	}
	c.prof.record(kindRecv, len(msg))
	chargeP2P(&c.cost, len(msg))
	return msg
}
