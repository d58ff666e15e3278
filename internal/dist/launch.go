package dist

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Multi-process mode: one OS process per rank, meshed over TCP. The
// parent (Launch) reserves a loopback address per rank, spawns the
// workers with the rank/peer roster in the environment, and waits; each
// worker (Connect) listens on its own address, dials every lower rank,
// accepts every higher one, and gets back the same TCPComm the
// in-process tcp world uses — so a solver runs unmodified either way.

// Environment variables carrying the rank roster from Launch to its
// worker processes. CLI flags override them.
const (
	EnvRank  = "RCSFISTA_RANK"
	EnvPeers = "RCSFISTA_PEERS"
)

// LaunchEnv reads the rank roster Launch placed in the environment.
// ok is false when the process was not started by Launch.
func LaunchEnv() (rank int, peers []string, ok bool) {
	rs, ps := os.Getenv(EnvRank), os.Getenv(EnvPeers)
	if rs == "" || ps == "" {
		return 0, nil, false
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return 0, nil, false
	}
	return r, strings.Split(ps, ","), true
}

// ReserveAddrs picks p distinct loopback addresses by binding ephemeral
// listeners and releasing them once all p are bound: holding every
// listener until the roster is complete keeps the kernel from handing
// one freed port out twice. The window between release and the worker
// re-binding is the usual ephemeral-port race; on a machine that is not
// churning through ports it is negligible, and a collision surfaces as
// a clean rendezvous error rather than a hang.
func ReserveAddrs(p int) ([]string, error) {
	addrs := make([]string, p)
	lns := make([]net.Listener, 0, p)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("dist: reserve rank %d address: %w", i, err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// Connect joins a multi-process TCP world as one rank: listen on
// peers[rank], rendezvous with every other rank, and return the
// communicator. peers is the full roster, one listen address per rank,
// identical on every process (the roster Launch distributes). Close
// the communicator when the program's collectives are all done.
func Connect(rank int, peers []string, machine perf.Machine, opts TCPOptions) (*TCPComm, error) {
	size := len(peers)
	if size < 1 {
		return nil, fmt.Errorf("dist: empty peer roster")
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("dist: rank %d outside roster of %d", rank, size)
	}
	ln, err := net.Listen("tcp", peers[rank])
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d listen on %s: %w", rank, peers[rank], err)
	}
	defer ln.Close()
	conns, err := tcpMesh(rank, size, ln, peers, opts)
	if err != nil {
		return nil, err
	}
	return newTCPComm(rank, size, conns, machine, opts, nil), nil
}

// LaunchSpec describes a multi-process world to spawn.
type LaunchSpec struct {
	// P is the number of ranks (one OS process each).
	P int
	// Bin is the executable to run; empty means re-exec this binary
	// (os.Executable), the usual SPMD self-launch.
	Bin string
	// Args is the argument list passed to every rank.
	Args []string
	// Env is extra environment entries appended after the parent's
	// environment and the rank roster.
	Env []string
	// Stdout and Stderr receive the workers' output (all ranks; a rank
	// prefix is the workers' own responsibility — by convention only
	// rank 0 prints results). Nil means inherit the parent's.
	Stdout, Stderr io.Writer
}

// launchGrace is how long an interrupted worker has to finish its
// round, report its partial result and exit before Launch kills it.
const launchGrace = 10 * time.Second

// Launch spawns spec.P worker processes, each holding one rank of a
// TCP world, hands them the rank roster through the environment
// (EnvRank, EnvPeers), and waits for all of them. The first failure
// kills the remaining workers at once. Cancelling ctx interrupts them
// instead (os.Interrupt), so the ranks can agree on the cancellation
// and each return through its own context — an interrupted solve still
// reports its partial result — and kills only those still running
// launchGrace later. A worker that exits 0 has succeeded, interrupted
// or not.
func Launch(ctx context.Context, spec LaunchSpec) error {
	if spec.P < 1 {
		return fmt.Errorf("dist: launch needs at least 1 rank (got %d)", spec.P)
	}
	bin := spec.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("dist: cannot resolve own executable: %w", err)
		}
		bin = exe
	}
	addrs, err := ReserveAddrs(spec.P)
	if err != nil {
		return err
	}
	roster := strings.Join(addrs, ",")
	// One writer is shared by P commands, each copying its child's
	// pipe from its own goroutine; serialize them or concurrent
	// ReadFrom/Write calls corrupt the sink (bytes.Buffer.ReadFrom
	// mutates internals even for an empty stream).
	var outMu, errMu sync.Mutex
	stdout, stderr := io.Writer(os.Stdout), io.Writer(os.Stderr)
	if spec.Stdout != nil {
		stdout = &lockedWriter{mu: &outMu, w: spec.Stdout}
	}
	if spec.Stderr != nil {
		stderr = &lockedWriter{mu: &errMu, w: spec.Stderr}
	}
	cmds := make([]*exec.Cmd, spec.P)
	killAll := func() {
		for _, cmd := range cmds {
			if cmd != nil {
				cmd.Process.Kill() // an exited worker reports ErrProcessDone
			}
		}
	}
	for r := 0; r < spec.P; r++ {
		cmd := exec.CommandContext(ctx, bin, spec.Args...)
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = launchGrace
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", EnvRank, r),
			fmt.Sprintf("%s=%s", EnvPeers, roster))
		cmd.Env = append(cmd.Env, spec.Env...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			killAll()
			for _, started := range cmds[:r] {
				started.Wait()
			}
			return fmt.Errorf("dist: start rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	// Wait on every rank concurrently: a failing rank must kill the
	// survivors even while a hung rank is still running.
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, spec.P)
	for r, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) {
			err := cmd.Wait()
			if cmd.ProcessState != nil && cmd.ProcessState.Success() {
				// Wait reports the interrupt even when the worker honored
				// it and exited cleanly.
				err = nil
			}
			exits <- exit{rank, err}
		}(r, cmd)
	}
	var firstErr error
	for i := 0; i < spec.P; i++ {
		e := <-exits
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dist: rank %d: %w", e.rank, e.err)
			killAll() // the survivors would block on the dead rank's links
		}
	}
	return firstErr
}

// lockedWriter serializes writes from the per-command pipe copiers
// onto one shared sink. Deliberately not an io.ReaderFrom: io.Copy
// must fall back to plain Write calls, which the mutex covers.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// MaxCostAcross reports the component-wise maximum of local over all
// ranks — the bulk-synchronous critical path a World's MaxCost would
// return, computed with one OpMax allreduce when ranks live in
// separate processes. The reporting collective itself is cost-free:
// the communicator's counters are restored afterwards.
func MaxCostAcross(c Comm, local perf.Cost) perf.Cost {
	snapshot := *c.Cost()
	buf := []float64{
		float64(local.Flops),
		float64(local.Messages),
		float64(local.Words),
		local.StallSec,
	}
	c.Allreduce(buf, OpMax)
	*c.Cost() = snapshot
	return perf.Cost{
		Flops:    int64(buf[0]),
		Messages: int64(buf[1]),
		Words:    int64(buf[2]),
		StallSec: buf[3],
	}
}
