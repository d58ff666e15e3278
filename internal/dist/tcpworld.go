package dist

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// helloDeadline bounds the rank-identification handshake on a freshly
// accepted mesh connection.
const helloDeadline = 10 * time.Second

// sendHello identifies the dialing rank to the accepting peer.
func sendHello(conn net.Conn, rank int, timeout time.Duration) error {
	conn.SetWriteDeadline(time.Now().Add(timeout))
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(AppendFrame(nil, Frame{Kind: FrameHello, Rank: uint32(rank)}))
	return err
}

// recvHello reads the dialer's rank off a freshly accepted connection.
func recvHello(conn net.Conn, timeout time.Duration) (int, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	defer conn.SetReadDeadline(time.Time{})
	f, err := ReadFrame(conn)
	if err != nil {
		return 0, err
	}
	if f.Kind != FrameHello {
		return 0, fmt.Errorf("dist: expected hello frame, got kind %d", f.Kind)
	}
	return int(f.Rank), nil
}

// dialPeer dials addr, retrying until timeout so ranks whose listeners
// are not up yet can be rendezvoused with, and introduces itself with a
// hello frame.
func dialPeer(addr string, rank int, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			if herr := sendHello(conn, rank, time.Until(deadline)); herr != nil {
				conn.Close()
				return nil, herr
			}
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tcpMesh forms rank's side of the full mesh: dial every lower rank
// (announcing ourselves with a hello frame), accept a connection from
// every higher rank (learning who dialed from its hello). Returns the
// per-rank connection slice; conns[rank] is nil.
func tcpMesh(rank, size int, ln net.Listener, addrs []string, opts TCPOptions) ([]net.Conn, error) {
	opts = opts.withDefaults()
	conns := make([]net.Conn, size)
	fail := func(err error) ([]net.Conn, error) {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, err
	}
	for r := 0; r < rank; r++ {
		conn, err := dialPeer(addrs[r], rank, opts.DialTimeout)
		if err != nil {
			return fail(&TransportError{Rank: rank, Peer: r, Op: "dial", Err: err})
		}
		conns[r] = conn
	}
	for have := 0; have < size-1-rank; have++ {
		if dl, ok := ln.(*net.TCPListener); ok {
			dl.SetDeadline(time.Now().Add(opts.DialTimeout))
		}
		conn, err := ln.Accept()
		if err != nil {
			return fail(&TransportError{Rank: rank, Peer: -1, Op: "accept", Err: err})
		}
		peer, err := recvHello(conn, helloDeadline)
		if err != nil || peer <= rank || peer >= size || conns[peer] != nil {
			conn.Close()
			if err == nil {
				err = fmt.Errorf("dist: unexpected hello from rank %d", peer)
			}
			return fail(&TransportError{Rank: rank, Peer: peer, Op: "accept", Err: err})
		}
		conns[peer] = conn
	}
	return conns, nil
}

// tcpWorld is the in-process TCP world (NewWorldOn "tcp"): each Run
// builds a fresh loopback mesh, executes the ranks as goroutines over
// it, then tears every socket and reader goroutine down, so runs are
// self-contained and leak-free. Collectives run the schedules of
// collective.go, combining in rank order, so results — and, through
// the shared accounting helpers, cost counters — are bit-identical to
// the chan world. It is the same communicator multi-process runs use
// (Connect/Launch); the in-process world exists so the whole test and
// golden suite can exercise the real wire path in one process. Costs
// accumulate across runs until ResetCosts, matching the chan world.
type tcpWorld struct {
	worldBase
	opts TCPOptions
}

var _ World = (*tcpWorld)(nil)

// connectLocal builds the P×P loopback mesh and returns one
// communicator per rank.
func (w *tcpWorld) connectLocal() ([]*TCPComm, error) {
	lns := make([]net.Listener, w.size)
	addrs := make([]string, w.size)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("dist: tcp world listen: %w", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	comms := make([]*TCPComm, w.size)
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			conns, err := tcpMesh(rank, w.size, lns[rank], addrs, w.opts)
			if err != nil {
				errs[rank] = err
				return
			}
			comms[rank] = newTCPComm(rank, w.size, conns, w.machine, w.opts, &w.prof)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, c := range comms {
				if c != nil {
					c.Close()
				}
			}
			return nil, err
		}
	}
	return comms, nil
}

// Run executes fn on every rank concurrently over a fresh loopback
// mesh and waits for completion (worldBase.runRanks).
func (w *tcpWorld) Run(fn func(c Comm) error) error {
	comms, err := w.connectLocal()
	if err != nil {
		return err
	}
	err = w.runRanks(func(rank int) error { return fn(comms[rank]) }, func() {
		// Every rank learns of the teardown before the first socket
		// closes, so none reports a sibling's closed connection as a
		// transport failure that Run would return ahead of the cause.
		for _, c := range comms {
			c.closed.Store(true)
		}
		for _, c := range comms {
			c.Abort()
		}
	})
	for r, c := range comms {
		w.costs[r].Add(c.cost)
		c.Close()
	}
	return err
}
