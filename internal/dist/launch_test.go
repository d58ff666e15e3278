package dist

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestMain turns the test binary into its own SPMD worker: when Launch
// (in TestLaunchMultiProcess below) re-executes it with a rank roster
// in the environment, it runs the worker program instead of the test
// suite — the standard helper-process pattern, with the same
// env-based rendezvous the real CLI uses.
func TestMain(m *testing.M) {
	if rank, peers, ok := LaunchEnv(); ok {
		os.Exit(launchWorkerMain(rank, peers))
	}
	os.Exit(m.Run())
}

// launchWorkerMain is one rank of the multi-process test world: join
// the mesh, run a few collectives whose results rank 0 prints, fail
// deliberately when asked to, and report the cross-rank max cost.
func launchWorkerMain(rank int, peers []string) int {
	if os.Getenv("DIST_TEST_INTERRUPT") != "" {
		return interruptWorkerMain(rank, peers)
	}
	c, err := Connect(rank, peers, perf.Comet(), TCPOptions{DialTimeout: 30 * time.Second})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank %d connect: %v\n", rank, err)
		return 1
	}
	defer c.Close()

	if os.Getenv("DIST_TEST_CALIBRATE") != "" {
		return calibrateWorkerMain(c)
	}
	if os.Getenv("DIST_TEST_FAIL_RANK") == fmt.Sprint(rank) {
		// Die mid-program: the surviving ranks must unwind through
		// their broken connections rather than hang.
		return 3
	}

	status := 0
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if te, ok := rec.(*TransportError); ok {
					fmt.Fprintf(os.Stderr, "rank %d transport: %v\n", rank, te)
					status = 4 // released by peer death, the expected unwind
					return
				}
				fmt.Fprintf(os.Stderr, "rank %d panic: %v\n", rank, rec)
				status = 2
			}
		}()
		sum := AllreduceScalar(c, float64(rank+1), OpSum)
		gath := c.Allgather([]float64{float64(rank) * 10})
		req := c.IAllreduceShared([]float64{1, float64(rank)})
		shared := req.Wait()
		c.Barrier()
		maxCost := MaxCostAcross(c, *c.Cost())
		if rank == 0 {
			fmt.Printf("sum=%g gathlen=%d shared0=%g msgs=%d\n",
				sum, len(gath), shared[0], maxCost.Messages)
		}
	}()
	return status
}

// calibrateWorkerMain is one rank of a multi-process calibration: rank
// 0 reports whether every process fitted the same machine bits.
func calibrateWorkerMain(c *TCPComm) int {
	m := Calibrate(c, calOpts).Machine
	hi := []float64{m.Alpha, m.Beta, m.Gamma, m.BetaF32, m.BetaI8}
	lo := slices.Clone(hi)
	c.Allreduce(hi, OpMax)
	c.Allreduce(lo, OpMin)
	if c.Rank() == 0 {
		same := true
		for i := range hi {
			same = same && math.Float64bits(hi[i]) == math.Float64bits(lo[i])
		}
		fmt.Printf("identical=%v\n", same)
	}
	return 0
}

// interruptWorkerMain is one rank that runs until its own context is
// interrupted: it announces that it is ready, waits for the signal a
// cancelled Launch sends, then still completes a collective with its
// peers and reports — the path an interrupted multi-process solve takes
// to print its partial result.
func interruptWorkerMain(rank int, peers []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c, err := Connect(rank, peers, perf.Comet(), TCPOptions{DialTimeout: 30 * time.Second})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank %d connect: %v\n", rank, err)
		return 1
	}
	defer c.Close()
	fmt.Println("ready")
	<-ctx.Done()
	sum := AllreduceScalar(c, 1, OpSum)
	fmt.Printf("rank %d interrupted: sum=%g\n", rank, sum)
	return 0
}

// readyWriter collects worker output and closes ready once want
// workers have printed their ready line.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	want  int
	ready chan struct{}
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if strings.Count(w.buf.String(), "ready\n") == w.want && w.want > 0 {
		w.want = 0
		close(w.ready)
	}
	return n, err
}

// TestLaunchInterruptsBeforeKill: cancelling Launch's context
// interrupts the workers instead of killing them, so every rank leaves
// through its own context — still able to run collectives with its
// peers — and exits cleanly, well inside the kill grace period; Launch
// then reports success.
func TestLaunchInterruptsBeforeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot resolve test binary: %v", err)
	}
	const p = 3
	out := &readyWriter{want: p, ready: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-out.ready:
		case <-time.After(60 * time.Second):
		}
		cancel()
	}()
	start := time.Now()
	err = Launch(ctx, LaunchSpec{
		P:      p,
		Bin:    exe,
		Env:    []string{"DIST_TEST_INTERRUPT=1"},
		Stdout: out,
		Stderr: os.Stderr,
	})
	elapsed := time.Since(start)
	got := out.buf.String()
	if err != nil {
		t.Fatalf("launch: %v\noutput: %s", err, got)
	}
	for r := 0; r < p; r++ {
		if line := fmt.Sprintf("rank %d interrupted: sum=%d\n", r, p); !strings.Contains(got, line) {
			t.Fatalf("missing %q: rank %d did not leave through its own context\noutput: %s", line, r, got)
		}
	}
	if elapsed >= launchGrace {
		t.Fatalf("workers took %v, past the %v kill grace", elapsed, launchGrace)
	}
}

// TestLaunchMultiProcess: Launch spawns one OS process per rank (this
// test binary re-executed), the ranks rendezvous over real localhost
// TCP, and rank 0 reports collective results computed across process
// boundaries.
func TestLaunchMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot resolve test binary: %v", err)
	}
	const p = 4
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = Launch(ctx, LaunchSpec{
		P:      p,
		Bin:    exe,
		Stdout: &out,
		Stderr: os.Stderr,
	})
	if err != nil {
		t.Fatalf("launch: %v\noutput: %s", err, out.String())
	}
	// sum over ranks of (rank+1) = 10; allgather has P entries; the
	// shared iallreduce sums P ones. Messages on the critical path:
	// scalar allreduce (2) + allgather (3) + iallreduce (2) + barrier
	// (2) = 9 for P=4.
	want := "sum=10 gathlen=4 shared0=4 msgs=9\n"
	if out.String() != want {
		t.Fatalf("worker output %q, want %q", out.String(), want)
	}
}

// TestCalibrateAcrossProcesses: four OS processes calibrating over
// real sockets end up with the same machine bits on every rank.
func TestCalibrateAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot resolve test binary: %v", err)
	}
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := Launch(ctx, LaunchSpec{
		P:      4,
		Bin:    exe,
		Env:    []string{"DIST_TEST_CALIBRATE=1"},
		Stdout: &out,
		Stderr: os.Stderr,
	}); err != nil {
		t.Fatalf("launch: %v\noutput: %s", err, out.String())
	}
	if out.String() != "identical=true\n" {
		t.Fatalf("worker output %q, want every rank's machine identical", out.String())
	}
}

// TestLaunchPropagatesWorkerFailure: a rank exiting nonzero mid-solve
// surfaces as a Launch error, and the surviving ranks terminate
// instead of hanging on the dead peer.
func TestLaunchPropagatesWorkerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot resolve test binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = Launch(ctx, LaunchSpec{
		P:      3,
		Bin:    exe,
		Env:    []string{"DIST_TEST_FAIL_RANK=1"},
		Stdout: &bytes.Buffer{},
		Stderr: &bytes.Buffer{},
	})
	if err == nil {
		t.Fatal("Launch succeeded despite a failing rank")
	}
	if ctx.Err() != nil {
		t.Fatalf("ranks hung on the dead peer until the test timeout: %v", err)
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("error does not identify the failing rank: %v", err)
	}
}

// TestReserveAddrs: the reserved roster is distinct loopback
// host:ports that can actually be bound.
func TestReserveAddrs(t *testing.T) {
	addrs, err := ReserveAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate reserved address %s", a)
		}
		seen[a] = true
		if !strings.HasPrefix(a, "127.0.0.1:") {
			t.Fatalf("reserved non-loopback address %s", a)
		}
	}
}

// TestConnectRejectsBadRoster: out-of-range ranks and empty rosters
// fail fast with a diagnostic instead of hanging in rendezvous.
func TestConnectRejectsBadRoster(t *testing.T) {
	if _, err := Connect(0, nil, perf.Comet(), TCPOptions{}); err == nil {
		t.Fatal("empty roster accepted")
	}
	if _, err := Connect(2, []string{"127.0.0.1:1"}, perf.Comet(), TCPOptions{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestConnectSingleRank: a one-rank roster needs no peers and behaves
// like a self communicator over the TCP code path.
func TestConnectSingleRank(t *testing.T) {
	addrs, err := ReserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(0, addrs, perf.Comet(), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.AllreduceShared([]float64{5})
	if res[0] != 5 {
		t.Fatalf("got %v", res)
	}
	if got := AllreduceScalar(c, 3, OpMax); got != 3 {
		t.Fatalf("scalar got %g", got)
	}
}
