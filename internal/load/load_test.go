package load

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/serve"
)

// TestBuildScheduleDeterministic is the harness's reproducibility
// contract: the schedule is a pure function of the config, so a fixed
// seed yields an identical request sequence on every call — which is
// what makes load numbers comparable across commits.
func TestBuildScheduleDeterministic(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Requests: 32, Sweep: true, SweepLen: 8},
		{Seed: 1, Requests: 32},
		{Seed: 7, Requests: 48, Mode: ModeOpen, RatePerSec: 100},
	} {
		a := BuildSchedule(cfg)
		b := BuildSchedule(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("schedule for %+v not reproducible", cfg)
		}
		if len(a) != cfg.Requests {
			t.Fatalf("schedule has %d requests, want %d", len(a), cfg.Requests)
		}
	}

	// Different seeds must actually change the random-mix lambdas.
	a := BuildSchedule(Config{Seed: 1, Requests: 16})
	b := BuildSchedule(Config{Seed: 2, Requests: 16})
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed does not influence the schedule")
	}
}

// TestBuildScheduleSweepShape: sweep mode walks a geometric path from
// RatioHi to RatioLo and cycles every SweepLen requests.
func TestBuildScheduleSweepShape(t *testing.T) {
	cfg := Config{Seed: 3, Requests: 16, Sweep: true, SweepLen: 8, RatioHi: 0.5, RatioLo: 0.05}
	sched := BuildSchedule(cfg)
	if r := sched[0].Fit.LambdaRatio; math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("path starts at ratio %g, want 0.5", r)
	}
	if r := sched[7].Fit.LambdaRatio; math.Abs(r-0.05) > 1e-12 {
		t.Fatalf("path ends at ratio %g, want 0.05", r)
	}
	for i := 0; i < 8; i++ {
		if sched[i].Fit.LambdaRatio != sched[i+8].Fit.LambdaRatio {
			t.Fatalf("sweep does not cycle at index %d", i)
		}
		if i > 0 && sched[i].Fit.LambdaRatio >= sched[i-1].Fit.LambdaRatio {
			t.Fatalf("sweep not strictly decreasing at index %d", i)
		}
	}
}

// TestBuildScheduleOpenArrivals: open-loop arrival offsets are
// non-decreasing and average out near the configured rate.
func TestBuildScheduleOpenArrivals(t *testing.T) {
	cfg := Config{Seed: 5, Requests: 512, Mode: ModeOpen, RatePerSec: 1000}
	sched := BuildSchedule(cfg)
	for i := 1; i < len(sched); i++ {
		if sched[i].At < sched[i-1].At {
			t.Fatalf("arrival times not monotone at %d", i)
		}
	}
	mean := sched[len(sched)-1].At.Seconds() / float64(len(sched)-1)
	if mean < 0.0005 || mean > 0.002 {
		t.Fatalf("mean interarrival %gs implausible for 1000 req/s", mean)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Mode: "burst"}).WithDefaults().Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := (Config{RatioHi: 0.01, RatioLo: 0.5}).WithDefaults().Validate(); err == nil {
		t.Fatal("inverted ratio range accepted")
	}
	if err := (Config{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

// TestHistogramPercentiles pins the nearest-rank math and the
// power-of-two bucketing.
func TestHistogramPercentiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100 ms
	}
	h := NewHistogram(samples)
	if h.N != 100 || h.MinMS != 1 || h.MaxMS != 100 {
		t.Fatalf("bounds wrong: %+v", h)
	}
	if h.P50MS != 50 || h.P95MS != 95 || h.P99MS != 99 {
		t.Fatalf("percentiles p50=%g p95=%g p99=%g, want 50/95/99", h.P50MS, h.P95MS, h.P99MS)
	}
	var count int
	for _, b := range h.Buckets {
		count += b.Count
		if b.HiMS != 2*b.LoMS {
			t.Fatalf("bucket not a power-of-two band: %+v", b)
		}
	}
	if count != 100 {
		t.Fatalf("buckets cover %d samples, want 100", count)
	}
	if z := NewHistogram(nil); z.N != 0 {
		t.Fatalf("empty histogram: %+v", z)
	}
}

// TestHistogramBucketsPartitionSamples is the conservation property:
// every sample lands in exactly one bucket, so the bucket counts sum
// to N. Zero-millisecond samples (a sub-resolution timer reading) used
// to fall below the smallest power-of-two band and vanish from the
// breakdown; they now land in an explicit [0, 2^lo) underflow bucket.
func TestHistogramBucketsPartitionSamples(t *testing.T) {
	sum := func(h Histogram) int {
		var n int
		for _, b := range h.Buckets {
			n += b.Count
		}
		return n
	}

	// The regression case: zeros mixed with ordinary latencies.
	h := NewHistogram([]float64{0, 0, 0.3, 1.5, 7, 64})
	if got := sum(h); got != h.N {
		t.Fatalf("buckets cover %d of %d samples", got, h.N)
	}
	if h.Buckets[0].LoMS != 0 || h.Buckets[0].Count != 2 {
		t.Fatalf("underflow bucket wrong: %+v", h.Buckets[0])
	}
	if h.Buckets[0].HiMS != h.Buckets[1].LoMS {
		t.Fatalf("underflow bucket does not abut the first band: %+v", h.Buckets[:2])
	}

	// All-zero input: one underflow bucket holding everything.
	if h := NewHistogram([]float64{0, 0, 0}); sum(h) != 3 || len(h.Buckets) != 1 {
		t.Fatalf("all-zero histogram: %+v", h)
	}

	// Property over random samples, including exact powers of two
	// (where Log2 rounding is touchiest), sub-millisecond values and a
	// sprinkling of zeros.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		samples := make([]float64, n)
		for i := range samples {
			switch rng.Intn(4) {
			case 0:
				samples[i] = 0
			case 1:
				samples[i] = math.Pow(2, float64(rng.Intn(20)-8))
			default:
				samples[i] = rng.ExpFloat64() * 50
			}
		}
		h := NewHistogram(samples)
		if got := sum(h); got != n {
			t.Fatalf("trial %d: buckets cover %d of %d samples (%+v)", trial, got, n, h.Buckets)
		}
		for i, b := range h.Buckets {
			if b.LoMS == 0 && i != 0 {
				t.Fatalf("trial %d: underflow bucket not first: %+v", trial, h.Buckets)
			}
			if b.LoMS != 0 && b.HiMS != 2*b.LoMS {
				t.Fatalf("trial %d: bucket not a power-of-two band: %+v", trial, b)
			}
		}
	}
}

// TestSummaryAnsweredBy: the summary says which path answered the
// run's fits, from the server's counters: triple_fits, certified_hits,
// and the rest of fits, which ran on a world.
func TestSummaryAnsweredBy(t *testing.T) {
	rep := &Report{ServerStats: &serve.StatsSnapshot{Fits: 64, TripleFits: 16, CertifiedHits: 40, WarmFits: 44}}
	if got := rep.Summary(); !strings.Contains(got, "  answered: 16 triple, 40 cache, 8 world\n") {
		t.Fatalf("summary lacks the answered line:\n%s", got)
	}
	if got := (&Report{}).Summary(); strings.Contains(got, "answered:") {
		t.Fatalf("a report without server stats claims who answered:\n%s", got)
	}
}

// TestSummaryWarmColdIters renders the summary from canned outcomes:
// warm and cold fits answered from the triple (no rounds) and by a
// world, a cache answer and a partial. The iteration means cover the
// solved, complete fits only — the cache answer ran no solve and the
// partial stopped at its deadline — so warm triple fits needing fewer
// iterations than cold ones show as a saving, where round means read
// 0 vs 0.
func TestSummaryWarmColdIters(t *testing.T) {
	fit := func(warm bool, by string, iters, rounds int, partial bool) Outcome {
		return Outcome{Status: 200, Fit: &serve.FitResponse{Warm: warm, AnsweredBy: by, Iters: iters, Rounds: rounds, Partial: partial}}
	}
	outcomes := []Outcome{
		fit(false, "triple", 90, 0, false),
		fit(false, "triple", 110, 0, false),
		fit(false, "world", 40, 40, false),
		fit(true, "triple", 20, 0, false),
		fit(true, "triple", 30, 0, false),
		fit(true, "world", 10, 10, false),
		fit(true, "cache", 0, 0, false),
		fit(true, "triple", 5000, 0, true),
	}
	rep := summarize(Config{}, outcomes, time.Second)
	if rep.MeanWarmIters != 20 || rep.MeanColdIters != 80 || rep.WarmFits != 4 || rep.Partial != 1 {
		t.Fatalf("warm mean %g, cold mean %g, %d warm fits, %d partial; want 20, 80, 4, 1",
			rep.MeanWarmIters, rep.MeanColdIters, rep.WarmFits, rep.Partial)
	}
	if got := rep.Summary(); !strings.Contains(got, "  iters of solved fits: warm mean 20.0 vs cold mean 80.0\n") {
		t.Fatalf("summary lacks the iteration means:\n%s", got)
	}
}

// TestRunClosedLoopAgainstServer is the end-to-end smoke: a short
// closed-loop sweep against an in-process server must complete without
// errors and hit the lambda-path cache on repeat path points.
func TestRunClosedLoopAgainstServer(t *testing.T) {
	sv := serve.New(serve.Config{Workers: 2, QueueCap: 64, Procs: 2})
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()

	cfg := Config{
		BaseURL:     ts.URL,
		Requests:    12,
		Concurrency: 2,
		Seed:        1,
		Sweep:       true,
		SweepLen:    4,
		Dataset:     serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7},
		Procs:       2,
		Warm:        true,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 12 || rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("run outcome: %+v", rep)
	}
	if rep.Latency.N != 12 || rep.Latency.P50MS <= 0 {
		t.Fatalf("latency summary missing: %+v", rep.Latency)
	}
	// Two full repeat passes over a 4-point path: at least the repeats
	// (and typically the within-pass neighbors) must warm-start.
	if rep.PathHits < 8 {
		t.Fatalf("path hits = %d, want >= 8 of 12", rep.PathHits)
	}
	if rep.ServerStats == nil || rep.ServerStats.Fits != 12 {
		t.Fatalf("server stats not collected: %+v", rep.ServerStats)
	}
	// A repeat pass re-requests published path points at the same P and
	// tolerance: those are answered from the cache without a solve.
	if rep.ServerStats.CertifiedHits == 0 {
		t.Fatalf("no certified hits in two repeat passes: %+v", rep.ServerStats)
	}
	if !strings.Contains(rep.Summary(), "certified hits") {
		t.Fatalf("summary omits the certified hits:\n%s", rep.Summary())
	}
}

// TestRunOpenLoop drives the open-loop path at a high rate so the test
// stays fast.
func TestRunOpenLoop(t *testing.T) {
	sv := serve.New(serve.Config{Workers: 4, QueueCap: 64, Procs: 1})
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()

	cfg := Config{
		BaseURL:    ts.URL,
		Mode:       ModeOpen,
		RatePerSec: 500,
		Requests:   8,
		Seed:       2,
		Sweep:      true,
		SweepLen:   4,
		Dataset:    serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7},
		Procs:      1,
		Warm:       true,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK+rep.Rejected != 8 || rep.Errors != 0 {
		t.Fatalf("open-loop outcome: %+v", rep)
	}
}
