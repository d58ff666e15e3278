package dist

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// segGrid is the payload-length grid of the segmentation tests: scalar,
// sub-chunk, one i8 chunk, and lengths straddling one, two and three
// granule boundaries, plus one that leaves every rank of an 8-rank
// world a ragged share.
var segGrid = []int{1, 31, 64, 4095, 4096, 4097, 8192, 12289, 50001}

// TestSegBoundsPartition: for any n and p the segments tile [0, n) in
// rank order with every interior boundary on a granule (hence i8
// chunk) boundary, no rank holds two granules more than another, and a
// payload of at most one granule belongs to rank 0 whole.
func TestSegBoundsPartition(t *testing.T) {
	if segGranule%perf.I8ChunkLen != 0 {
		t.Fatalf("segGranule %d is not a multiple of the i8 chunk length %d", segGranule, perf.I8ChunkLen)
	}
	rng := rand.New(rand.NewSource(15))
	check := func(n, p int) {
		granules := func(vals int) int { return (vals + segGranule - 1) / segGranule }
		next, most, fewest := 0, 0, granules(n)
		for r := 0; r < p; r++ {
			lo, hi := segBounds(n, p, r)
			if lo != next || hi < lo || hi > n {
				t.Fatalf("n=%d p=%d rank %d: segment [%d,%d) does not continue at %d", n, p, r, lo, hi, next)
			}
			if hi < n && hi%segGranule != 0 {
				t.Fatalf("n=%d p=%d rank %d: boundary %d is not on a granule", n, p, r, hi)
			}
			if got, want := segOwner(n, p, r), r == 0 || lo < hi; got != want {
				t.Fatalf("n=%d p=%d rank %d: segOwner = %v with segment [%d,%d)", n, p, r, got, lo, hi)
			}
			next, most, fewest = hi, max(most, granules(hi-lo)), min(fewest, granules(hi-lo))
		}
		if next != n {
			t.Fatalf("n=%d p=%d: segments end at %d", n, p, next)
		}
		if most-fewest > 1 {
			t.Fatalf("n=%d p=%d: ranks hold between %d and %d granules", n, p, fewest, most)
		}
		if lo, hi := segBounds(n, p, 0); n <= segGranule && (lo != 0 || hi != n) {
			t.Fatalf("n=%d p=%d: rank 0 owns [%d,%d), want the whole payload", n, p, lo, hi)
		}
	}
	for _, n := range append([]int{0, 619464}, segGrid...) {
		for p := 1; p <= 9; p++ {
			check(n, p)
		}
	}
	for i := 0; i < 2000; i++ {
		check(rng.Intn(40*segGranule), 1+rng.Intn(17))
	}
}

// TestSegmentedAllreduceMatchesCombine: on every backend the shared
// allreduce — blocking, posted, and two posts in flight at once — is
// bit-equal to combine over the raw contributions, on every rank, at
// every tier, for P and payload lengths that leave ranks without a
// segment, with exactly one granule, and with ragged shares. chan is
// combine by construction, so this is tcp == chan bit for bit.
func TestSegmentedAllreduceMatchesCombine(t *testing.T) {
	want := func(p, n int, tier Tier) []float64 {
		contrib := make([][]float64, p)
		for r := range contrib {
			contrib[r] = tieredPayload(r, n)
		}
		out := make([]float64, n)
		combine(out, contrib, tier)
		return out
	}
	same := func(what string, rank int, got, want []float64) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s rank %d: %d values, want %d", what, rank, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("%s rank %d value %d: got %x, combine gives %x",
					what, rank, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		return nil
	}
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, p := range []int{2, 3, 4, 8} {
			refs := map[[2]int][]float64{}
			for tier := range tiers {
				for _, n := range segGrid {
					refs[[2]int{tier, n}] = want(p, n, Tier(tier))
				}
			}
			err := mustWorld(t, backend, p).Run(func(c Comm) error {
				for tier := range tiers {
					tier := Tier(tier)
					for i, n := range segGrid {
						what := fmt.Sprintf("P%d/%v/n%d", p, tier, n)
						local, ref := tieredPayload(c.Rank(), n), refs[[2]int{int(tier), n}]
						if err := same(what+"/blocking", c.Rank(), AllreduceSharedTier(c, local, tier), ref); err != nil {
							return err
						}
						if err := same(what+"/posted", c.Rank(), IAllreduceSharedTier(c, local, tier).Wait(), ref); err != nil {
							return err
						}
						// Two posts in flight, of different lengths,
						// waited in post order.
						n2 := segGrid[(i+3)%len(segGrid)]
						first := IAllreduceSharedTier(c, local, tier)
						second := IAllreduceSharedTier(c, tieredPayload(c.Rank(), n2), tier)
						if err := same(what+"/overlap-first", c.Rank(), first.Wait(), ref); err != nil {
							return err
						}
						if err := same(what+"/overlap-second", c.Rank(), second.Wait(), refs[[2]int{int(tier), n2}]); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
		}
	})
}

// runBounded runs fn on a fresh 3-rank world of backend b and fails the
// test if the world has not unwound within the bound.
func runBounded(t *testing.T, backend string, what string, fn func(c Comm) error) error {
	t.Helper()
	w := mustWorld(t, backend, 3)
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: world still running after 20s\n%s", what, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestSegmentedMismatchUnwinds: with segment ownership no rank checks a
// peer's whole payload, so ranks that disagree on its length — by one
// value across a granule boundary, by a granule, by the number of
// owners — or on the tier must still all unwind with a diagnostic
// naming the dissenting rank (and both tiers): on every backend,
// whichever rank dissents, blocking or posted, in bounded time, leaking
// no goroutine.
func TestSegmentedMismatchUnwinds(t *testing.T) {
	forEachBackend(t, testSegmentedMismatchUnwinds)
}

func testSegmentedMismatchUnwinds(t *testing.T, backend string) {
	lengths := [][2]int{ // {the two agreeing ranks, the dissenter}
		{40, 41}, {4095, 4096}, {4096, 4097}, {4097, 4096}, {8192, 8193}, {8193, 8192},
		{4096, 8192}, {8192, 4096}, {4096, 12289}, {12289, 40}, {50001, 50000},
	}
	for _, posted := range []bool{false, true} {
		run := func(c Comm, local []float64, tier Tier) {
			if posted {
				IAllreduceSharedTier(c, local, tier).Wait()
			} else {
				AllreduceSharedTier(c, local, tier)
			}
		}
		for dissenter := 0; dissenter < 3; dissenter++ {
			for _, ln := range lengths {
				what := fmt.Sprintf("posted=%v dissenter=%d lengths=%v", posted, dissenter, ln)
				baseline := runtime.NumGoroutine()
				err := runBounded(t, backend, what, func(c Comm) error {
					n := ln[0]
					if c.Rank() == dissenter {
						n = ln[1]
					}
					run(c, tieredPayload(c.Rank(), n), TierF64)
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "length mismatch") ||
					!strings.Contains(err.Error(), fmt.Sprintf("rank %d", dissenter)) {
					t.Fatalf("%s: err = %v, want a length mismatch naming rank %d", what, err, dissenter)
				}
				VerifyNoGoroutineLeaks(t, baseline)
			}
			for _, n := range []int{40, 4097, 12289} {
				what := fmt.Sprintf("posted=%v dissenter=%d n=%d tiers", posted, dissenter, n)
				baseline := runtime.NumGoroutine()
				err := runBounded(t, backend, what, func(c Comm) error {
					tier := TierF32
					if c.Rank() == dissenter {
						tier = TierI8
					}
					run(c, tieredPayload(c.Rank(), n), tier)
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "tier mismatch") ||
					!strings.Contains(err.Error(), fmt.Sprintf("rank %d", dissenter)) ||
					!strings.Contains(err.Error(), "f32") || !strings.Contains(err.Error(), "i8") {
					t.Fatalf("%s: err = %v, want a tier mismatch naming rank %d, f32 and i8", what, err, dissenter)
				}
				VerifyNoGoroutineLeaks(t, baseline)
			}
		}
	}
}

// rawMesh returns rank's communicator in a size-rank world whose other
// ranks are bare sockets the test writes frames to by hand; whatever
// the communicator sends them is discarded.
func rawMesh(t *testing.T, rank, size int) (*TCPComm, []net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	mine, theirs := make([]net.Conn, size), make([]net.Conn, size)
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if theirs[r], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if mine[r], err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, theirs[r])
	}
	c := newTCPComm(rank, size, mine, unitMachine(), TCPOptions{}, nil)
	t.Cleanup(func() {
		c.Close()
		for _, conn := range theirs {
			if conn != nil {
				conn.Close()
			}
		}
	})
	return c, theirs
}

// TestReaderRejectsForgedFrames: the reader goroutine trusts nothing in
// a header. A frame whose rank field is not the connection's peer — in
// range or not — and a second contribution or result segment for one
// (collective, rank), a result for a collective the rank has not posted
// — there is no hub whose answer could come early — and a contribution
// from a rank the collective takes none from fail the communicator with
// a TransportError that the next Wait unwinds with; none of them may
// panic the reader, which would take the whole process down.
func TestReaderRejectsForgedFrames(t *testing.T) {
	seg := make([]float64, segGranule)
	cases := []struct {
		name   string
		rank   int
		frames func(rank uint32) []Frame // written by the peer with that rank
		from   int
		want   string
		wait   func(c *TCPComm) // what unwinds; nil: Wait on the posted allreduce
	}{
		{"rank of another peer", 0, func(uint32) []Frame {
			return []Frame{{Kind: FrameContrib, Rank: 2, Seq: 0, Payload: seg}}
		}, 1, "claims sender rank 2", nil},
		{"rank out of range", 0, func(uint32) []Frame {
			return []Frame{{Kind: FrameContrib, Rank: 1 << 30, Seq: 0, Payload: seg}}
		}, 1, "claims sender rank", nil},
		{"own rank", 1, func(uint32) []Frame {
			return []Frame{{Kind: FrameResult, Rank: 1, Seq: 0, Payload: seg}}
		}, 0, "claims sender rank 1", nil},
		{"second contribution", 0, func(r uint32) []Frame {
			f := Frame{Kind: FrameContrib, Rank: r, Seq: 0, Payload: seg}
			return []Frame{f, f}
		}, 1, "contribution to collective 0 after one to collective 0", nil},
		{"second result segment", 1, func(r uint32) []Frame {
			f := Frame{Kind: FrameResult, Rank: r, Seq: 0, Payload: seg}
			return []Frame{f, f}
		}, 0, "second result segment", nil},
		{"result from a rank that owns nothing", 0, func(r uint32) []Frame {
			return []Frame{{Kind: FrameResult, Rank: r, Seq: 0, Payload: seg}}
		}, 2, "length mismatch", nil},
		{"tiered result nobody posted", 0, func(r uint32) []Frame {
			return []Frame{{Kind: FrameResultI8, Rank: r, Seq: 9, Payload: seg}}
		}, 1, "has not posted", nil},
		{"f64 result nobody posted", 0, func(r uint32) []Frame {
			return []Frame{{Kind: FrameResult, Rank: r, Seq: 9, Payload: []float64{1}}}
		}, 1, "has not posted", nil},
		{"contribution from a rank that is no sender", 1, func(r uint32) []Frame {
			return []Frame{{Kind: FrameContrib, Rank: r, Seq: 1, Payload: []float64{1}}}
		}, 2, "not one of its senders", func(c *TCPComm) { c.Bcast(make([]float64, 1), 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			c, peers := rawMesh(t, tc.rank, 3)
			// Two granules: ranks 0 and 1 own one each, rank 2 nothing.
			req := c.IAllreduceShared(make([]float64, 2*segGranule))
			var wire []byte
			for _, f := range tc.frames(uint32(tc.from)) {
				wire = AppendFrame(wire, f)
			}
			if _, err := peers[tc.from].Write(wire); err != nil {
				t.Fatal(err)
			}
			unwound := make(chan any, 1)
			go func() {
				defer func() { unwound <- recover() }()
				if tc.wait != nil {
					tc.wait(c)
				} else {
					req.Wait()
				}
			}()
			select {
			case rec := <-unwound:
				terr, ok := rec.(*TransportError)
				if !ok || !strings.Contains(terr.Error(), tc.want) {
					t.Fatalf("Wait unwound with %v, want a TransportError mentioning %q", rec, tc.want)
				}
				if terr.Peer != tc.from || terr.Rank != tc.rank {
					t.Fatalf("error blames rank %d peer %d, want rank %d peer %d", terr.Rank, terr.Peer, tc.rank, tc.from)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Wait still blocked 10s after the forged frame")
			}
			c.Close()
			for _, conn := range peers {
				if conn != nil {
					conn.Close()
				}
			}
			VerifyNoGoroutineLeaks(t, baseline)
		})
	}
}

// TestSharedAllreduceSteadyStateAllocs bounds what one shared
// allreduce allocates per world once buffers have warmed up, at every
// tier: the result slices the ranks keep — one per rank over tcp, the
// one slice all ranks share on chan — plus a small constant per rank
// (request, op and contribution bookkeeping). No per-call frame, body,
// contribution or rounding scratch buffer.
func TestSharedAllreduceSteadyStateAllocs(t *testing.T) {
	const (
		p, n, rounds = 2, 12312, 50
		slack        = 2048 // bytes per call per rank beyond the results
	)
	// TotalAlloc counts a large slice at the allocator's 8 KiB page
	// granularity.
	result := (8*n + 8191) / 8192 * 8192
	forEachBackend(t, func(t *testing.T, backend string) {
		results := p // one physical copy per rank
		if backend == "chan" {
			results = 1
		}
		for tier := range tiers {
			tier := Tier(tier)
			local := benchWords(n)
			var perCall float64
			err := mustWorld(t, backend, p).Run(func(c Comm) error {
				for i := 0; i < 5; i++ {
					AllreduceSharedTier(c, local, tier)
				}
				c.Barrier()
				var before, after runtime.MemStats
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				for i := 0; i < rounds; i++ {
					AllreduceSharedTier(c, local, tier)
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
					perCall = float64(after.TotalAlloc-before.TotalAlloc) / rounds
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if limit := float64(results*result + p*slack); perCall > limit {
				t.Fatalf("%v: steady state allocates %.0f bytes per allreduce per world, want at most %.0f (%d results of %d + %d per rank)",
					tier, perCall, limit, results, result, slack)
			}
			t.Logf("%v: %.0f bytes per allreduce per world (%d results of %d)", tier, perCall, results, result)
		}
	})
}

// TestSmallAllreduceSteadyStateAllocs bounds what one in-place Allreduce
// over tcp allocates per rank once warmed up: the contribution-set
// bookkeeping of one collective and nothing that grows with the payload
// — the peers' contributions are decoded into buffers that come back
// through putBuf, the result is folded in the communicator's scratch,
// and the frame is encoded into the connection's write buffer. A scalar
// and a 64-value vector share the bound: a contribution buffer of the
// vector that is not recycled shows above the bookkeeping.
func TestSmallAllreduceSteadyStateAllocs(t *testing.T) {
	const (
		p, rounds = 3, 200
		limit     = 384 // bytes per call per rank; one lost 64-value buffer is 512
	)
	for _, n := range []int{1, 64} {
		var perCall float64
		err := mustWorld(t, "tcp", p).Run(func(c Comm) error {
			buf := make([]float64, n)
			for i := 0; i < 5; i++ {
				c.Allreduce(buf, OpMax)
			}
			var before, after runtime.MemStats
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < rounds; i++ {
				c.Allreduce(buf, OpMax)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				perCall = float64(after.TotalAlloc-before.TotalAlloc) / (rounds * p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if perCall > limit {
			t.Fatalf("steady state allocates %.0f bytes per %d-value allreduce per rank, want at most %d", perCall, n, limit)
		}
		t.Logf("%.0f bytes per %d-value allreduce per rank", perCall, n)
	}
}
