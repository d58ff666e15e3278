// Package dist is the distributed-memory substrate: an MPI-style
// message-passing runtime. P ranks execute as P goroutines over shared
// memory (the chan backend) or over a mesh of loopback sockets (tcp,
// which is also one rank per OS process under Launch); collectives
// (Allreduce, Bcast, Reduce, Allgather, Barrier) and point-to-point
// Send/Recv have the data-movement semantics of their MPI
// counterparts, and every operation charges the alpha-beta model costs
// of the tree/ring algorithm it stands for into the calling rank's
// perf.Cost.
//
// This substitutes for the paper's MPI 2.1 deployment on XSEDE Comet
// (DESIGN.md Section 2): algorithms written against the Comm interface
// perform exactly the communication pattern of the MPI program — same
// message counts, same word counts — while execution happens inside one
// process. Modeled time comes from perf.Machine; real wall-clock is
// also observable but reflects the host, not Comet.
//
// Reductions are performed in ascending rank order starting from rank
// 0's contribution — by every rank that receives the result, each for
// itself, for the small collectives; once per segment at the segment's
// owner for the shared sum-allreduce (both in collective.go) — so
// results are bit-for-bit deterministic across runs, identical on every
// rank and backend, and independent of goroutine scheduling and network
// arrival order. (A real MPI allreduce has a fixed reduction tree, so
// determinism across runs at fixed P is the faithful choice.)
package dist

import (
	"github.com/hpcgo/rcsfista/internal/perf"
)

// Op selects the combining operation of a reduction collective.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) combine(dst, src []float64) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic("dist: unknown reduction op")
	}
}

// Comm is the communicator one rank holds. All collective calls must be
// made by every rank of the world in the same order (the usual MPI
// contract); violating it deadlocks, exactly as MPI would.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of processes P.
	Size() int
	// Barrier synchronizes all ranks.
	Barrier()
	// Allreduce combines buf across ranks element-wise with op and
	// leaves the result in every rank's buf.
	Allreduce(buf []float64, op Op)
	// AllreduceShared combines local across ranks with OpSum and
	// returns one freshly allocated result slice shared by all ranks.
	// Callers must treat the result as read-only. Compared to
	// Allreduce it models the same communication but avoids P
	// physical copies in this in-process simulation, which matters
	// when the payload is the k*d^2-word Hessian batch of RC-SFISTA.
	AllreduceShared(local []float64) []float64
	// IAllreduceShared posts the same sum-allreduce nonblocking (the
	// MPI_Iallreduce counterpart) and returns immediately with a
	// request handle. The caller may compute while the collective is
	// in flight and must eventually call Wait, which returns the same
	// shared read-only slice AllreduceShared would — bit-identical,
	// because the reduction runs in rank order either way. The
	// communication cost is charged at Wait. Every rank must post
	// nonblocking collectives in the same order and Wait them in the
	// same order among its other collectives — a backend may make no
	// progress before Wait, and chan makes none — and local must stay
	// unmodified until Wait returns.
	IAllreduceShared(local []float64) *Request
	// Bcast copies root's buf into every rank's buf.
	Bcast(buf []float64, root int)
	// Reduce combines buf across ranks with op; the result lands in
	// root's buf, other ranks' buffers are unchanged.
	Reduce(buf []float64, op Op, root int)
	// Allgather concatenates every rank's local slice in rank order
	// and returns the concatenation to all ranks. Local lengths may
	// differ across ranks.
	Allgather(local []float64) []float64
	// Send transmits a copy of msg to rank to.
	Send(to int, msg []float64)
	// Recv receives the next message from rank from.
	Recv(from int) []float64
	// Cost exposes this rank's accumulated communication/compute cost.
	Cost() *perf.Cost
	// Machine returns the machine model used for cost accounting.
	Machine() perf.Machine
}

// The optional tiered-collective capabilities (F32Allreducer,
// I8Allreducer) and their dispatch helpers live in tier.go.

// Request is the handle of an in-flight nonblocking collective posted
// with IAllreduceShared. It is owned by the posting rank and is not
// safe for concurrent use by multiple goroutines.
type Request struct {
	wait   func() []float64
	result []float64
	done   bool
}

// Wait blocks until the collective completes and returns the shared,
// read-only result slice. Costs are charged on the first call; calling
// Wait again returns the same slice without re-charging.
func (r *Request) Wait() []float64 {
	if !r.done {
		r.result = r.wait()
		r.wait = nil
		r.done = true
	}
	return r.result
}

// completedRequest wraps an already-available result, used where the
// collective resolves at post time (single rank).
func completedRequest(res []float64) *Request {
	return &Request{result: res, done: true}
}

// AllreduceScalar is a convenience wrapper reducing a single value. It
// routes through the backend's Allreduce, so the cost bookkeeping is
// the shared chargeAllreduceTier helper (at TierF64) on every transport.
func AllreduceScalar(c Comm, x float64, op Op) float64 {
	buf := [1]float64{x}
	c.Allreduce(buf[:], op)
	return buf[0]
}
