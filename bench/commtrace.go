package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the causing span in the trace file (-1 for an op); spans of one
// solve or fit share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
	Rank   int    `json:"rank"`
	Words  int    `json:"words"`
}

// tracer keeps the spans of one traced pass in memory; they are
// written out once, when the pass ends. Only the goroutine driving the
// pass appends; ranks record into their own commStats and are merged
// after the solve.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the trace clock: nanoseconds since the pass started. Safe for
// concurrent use.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTime is span i's duration minus the part of that interval its
// direct children on the given rank cover (overlapping children count
// once).
func (t *tracer) selfTime(i, rank int) int64 {
	p := t.spans[i]
	var kids []span
	for _, s := range t.spans[i+1:] {
		if s.Parent == i && s.Rank == rank {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, p.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return (p.End - p.Start) - covered
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// callKind names the Comm methods the decorator distinguishes.
type callKind int

const (
	callBarrier callKind = iota
	callAllreduce
	callAllreduceShared
	callIAllreduce
	callBcast
	callReduce
	callAllgather
	callSend
	callRecv
	numCallKinds
)

var callNames = [numCallKinds]string{
	"dist.barrier", "dist.allreduce", "dist.allreduce_shared", "dist.iallreduce_post",
	"dist.bcast", "dist.reduce", "dist.allgather", "dist.send", "dist.recv",
}

// commStats is what one rank's decorator saw during one solve.
type commStats struct {
	rank  int
	spans []span
	// entries holds the entry time of every blocking collective in call
	// order; SPMD ranks make the same sequence, so index i on every
	// rank is the same collective.
	entries []int64
	calls   [numCallKinds]int
	wordsIn int
	// busy is the time spent inside blocking Comm methods: transfer
	// plus waiting for the other ranks.
	busy int64
	// tier counts the tier-capable collectives (AllreduceShared and its
	// nonblocking post) by the wire tier the solver picked.
	tier [3]int
	// wire is the computed byte count one rank puts on and takes off a
	// star link for the collectives seen: words x tier width + headers.
	wire int64
}

// tracedComm decorates a rank's communicator: it forwards every call
// unchanged and records a span and counts around it. It implements the
// tiered capabilities by delegation, so the solver picks the same
// tiers as on the bare transport and results stay bit-identical.
type tracedComm struct {
	dist.Comm
	st    *commStats
	clock func() int64
}

var (
	_ dist.F32Allreducer = (*tracedComm)(nil)
	_ dist.I8Allreducer  = (*tracedComm)(nil)
)

func tierBytes(n int, t dist.Tier) int64 {
	switch t {
	case dist.TierF32:
		return 8 * perf.F32Words(n)
	case dist.TierI8:
		return 8 * perf.I8Words(n)
	}
	return 8 * int64(n)
}

// record closes a call that started at start. collective marks calls
// every rank enters together (they feed the skew sum); blocking marks
// calls that return only once the data has moved.
func (c *tracedComm) record(kind callKind, start int64, words int, t dist.Tier, collective, blocking bool) {
	end := c.clock()
	st := c.st
	name := callNames[kind]
	if kind == callAllreduceShared || kind == callIAllreduce {
		st.tier[t]++
		if t != dist.TierF64 {
			name += "." + t.String()
		}
	}
	st.spans = append(st.spans, span{Name: name, Start: start, End: end, Rank: st.rank, Words: words})
	st.calls[kind]++
	st.wordsIn += words
	if collective {
		st.wire += 2 * (dist.WireHeaderLen + tierBytes(words, t))
	}
	if blocking {
		st.busy += end - start
		if collective {
			st.entries = append(st.entries, start)
		}
	}
}

func (c *tracedComm) Barrier() {
	s := c.clock()
	c.Comm.Barrier()
	c.record(callBarrier, s, 0, dist.TierF64, true, true)
}

func (c *tracedComm) Allreduce(buf []float64, op dist.Op) {
	s := c.clock()
	c.Comm.Allreduce(buf, op)
	c.record(callAllreduce, s, len(buf), dist.TierF64, true, true)
}

func (c *tracedComm) AllreduceShared(local []float64) []float64 {
	s := c.clock()
	out := c.Comm.AllreduceShared(local)
	c.record(callAllreduceShared, s, len(local), dist.TierF64, true, true)
	return out
}

func (c *tracedComm) AllreduceSharedF32(local []float64) []float64 {
	s := c.clock()
	out := c.Comm.(dist.F32Allreducer).AllreduceSharedF32(local)
	c.record(callAllreduceShared, s, len(local), dist.TierF32, true, true)
	return out
}

func (c *tracedComm) AllreduceSharedI8(local []float64) []float64 {
	s := c.clock()
	out := c.Comm.(dist.I8Allreducer).AllreduceSharedI8(local)
	c.record(callAllreduceShared, s, len(local), dist.TierI8, true, true)
	return out
}

// The nonblocking posts return a *dist.Request whose Wait cannot be
// wrapped from outside the package (unexported fields), so only the
// post is timed; the in-flight transfer and the wait are invisible.

func (c *tracedComm) IAllreduceShared(local []float64) *dist.Request {
	s := c.clock()
	req := c.Comm.IAllreduceShared(local)
	c.record(callIAllreduce, s, len(local), dist.TierF64, true, false)
	return req
}

func (c *tracedComm) IAllreduceSharedF32(local []float64) *dist.Request {
	s := c.clock()
	req := c.Comm.(dist.F32Allreducer).IAllreduceSharedF32(local)
	c.record(callIAllreduce, s, len(local), dist.TierF32, true, false)
	return req
}

func (c *tracedComm) IAllreduceSharedI8(local []float64) *dist.Request {
	s := c.clock()
	req := c.Comm.(dist.I8Allreducer).IAllreduceSharedI8(local)
	c.record(callIAllreduce, s, len(local), dist.TierI8, true, false)
	return req
}

func (c *tracedComm) Bcast(buf []float64, root int) {
	s := c.clock()
	c.Comm.Bcast(buf, root)
	c.record(callBcast, s, len(buf), dist.TierF64, true, true)
}

func (c *tracedComm) Reduce(buf []float64, op dist.Op, root int) {
	s := c.clock()
	c.Comm.Reduce(buf, op, root)
	c.record(callReduce, s, len(buf), dist.TierF64, true, true)
}

func (c *tracedComm) Allgather(local []float64) []float64 {
	s := c.clock()
	out := c.Comm.Allgather(local)
	c.record(callAllgather, s, len(local), dist.TierF64, true, true)
	return out
}

func (c *tracedComm) Send(to int, msg []float64) {
	s := c.clock()
	c.Comm.Send(to, msg)
	c.record(callSend, s, len(msg), dist.TierF64, false, true)
}

func (c *tracedComm) Recv(from int) []float64 {
	s := c.clock()
	out := c.Comm.Recv(from)
	c.record(callRecv, s, len(out), dist.TierF64, false, true)
	return out
}

// SupportsTier answers for the wrapped transport: the decorator's
// tiered methods exist unconditionally.
func (c *tracedComm) SupportsTier(t dist.Tier) error { return dist.SupportsTier(c.Comm, t) }

// tracedSolve is solver.SolveDistributedContext with every rank's
// communicator decorated. It returns what each rank's decorator saw.
func tracedSolve(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts solver.Options, clock func() int64) (*solver.Result, []*commStats, error) {
	stats := make([]*commStats, w.Size())
	res, err := solvercore.RunWorld(w, func(c dist.Comm) (*solver.Result, error) {
		st := &commStats{rank: c.Rank()}
		stats[c.Rank()] = st
		local := solver.Partition(x, y, c.Size(), c.Rank())
		return solver.RCSFISTAContext(ctx, &tracedComm{Comm: c, st: st, clock: clock}, local, opts)
	})
	return res, stats, err
}

// waitSkew sums, over the blocking collectives of one solve, the gap
// between the first and the last rank entering: time the early ranks
// spent waiting for the late one.
func waitSkew(stats []*commStats) int64 {
	var sum int64
	for i := range stats[0].entries {
		lo, hi := stats[0].entries[i], stats[0].entries[i]
		for _, st := range stats[1:] {
			if i >= len(st.entries) {
				continue
			}
			lo, hi = min(lo, st.entries[i]), max(hi, st.entries[i])
		}
		sum += hi - lo
	}
	return sum
}
