package load

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
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
// run's fits, from their replies' answered_by, and how many of its warm
// fits were certified hits — whatever the server's running totals say.
func TestSummaryAnsweredBy(t *testing.T) {
	fit := func(by string, warm bool) Outcome {
		return Outcome{Status: 200, Fit: &serve.FitResponse{AnsweredBy: by, Warm: warm}}
	}
	outcomes := []Outcome{fit("triple", false), fit("triple", true), fit("cache", true), fit("cache", true), fit("world", false), {Status: 429}}
	rep := summarize(Config{}, outcomes, time.Second)
	rep.ServerStats = &serve.StatsSnapshot{Fits: 64, TripleFits: 16, CertifiedHits: 40, WarmFits: 44}
	got := rep.Summary()
	if !strings.Contains(got, "  answered: 2 triple, 2 cache, 1 world\n") ||
		!strings.Contains(got, "  certified hits (answered without a solve): 2 of 3 warm fits\n") {
		t.Fatalf("summary misreports the run:\n%s", got)
	}
	if got := summarize(Config{}, []Outcome{{Status: 429}}, time.Second).Summary(); strings.Contains(got, "answered:") {
		t.Fatalf("a run without fits claims who answered:\n%s", got)
	}
}

// TestSummaryCountsTheRun: a sweep against a server that has already
// answered fits — a least-squares fit, its repeat and a huber fit —
// reports its own fits: every one answered by the triple or the cache,
// none by a world, with the certified hits among its own warm fits.
func TestSummaryCountsTheRun(t *testing.T) {
	sv := serve.New(serve.Config{Workers: 2, QueueCap: 64, Procs: 2})
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()
	ds := serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}
	ls := Request{Fit: serve.FitRequest{Dataset: &ds, LambdaRatio: 0.3}}
	huber := Request{Fit: serve.FitRequest{Dataset: &ds, LambdaRatio: 0.3, Loss: "huber", MaxIter: 20}}
	for _, req := range []*Request{&ls, &ls, &huber} {
		if o := doFit(context.Background(), ts.Client(), ts.URL, req); o.Fit == nil {
			t.Fatalf("earlier fit: status %d, %s", o.Status, o.Err)
		}
	}
	rep, err := Run(context.Background(), Config{BaseURL: ts.URL, Requests: 12, Concurrency: 2, Seed: 1,
		Sweep: true, SweepLen: 4, Dataset: ds, Procs: 2, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	by := rep.AnsweredBy
	if rep.OK != 12 || by["triple"]+by["cache"] != 12 || by["world"] != 0 || rep.ServerStats.Fits != 15 {
		t.Fatalf("%d ok, answered %v, server fits %d; want the run's 12, none by a world, of the server's 15", rep.OK, by, rep.ServerStats.Fits)
	}
	want := fmt.Sprintf("  certified hits (answered without a solve): %d of %d warm fits\n  answered: %d triple, %d cache, 0 world\n",
		by["cache"], rep.WarmFits, by["triple"], by["cache"])
	if got := rep.Summary(); !strings.Contains(got, want) {
		t.Fatalf("summary\n%s\nlacks the run's counts\n%s", got, want)
	}
}

// TestSummaryWarmColdIters renders the summary from canned outcomes:
// warm and cold fits answered from the triple (no rounds) and by a
// world at four lambdas, a cache answer and a partial. The iteration
// means cover the solved, complete fits only — the cache answer ran no
// solve and the partial stopped at its deadline — at the lambdas that
// have both a warm and a cold one, each lambda weighing the same: a
// warm start saving iterations shows as a saving at equal lambda, not
// as the difference between the lambdas warm and cold fits ran at. With
// no such lambda the summary says there is no pair.
func TestSummaryWarmColdIters(t *testing.T) {
	fit := func(lambda float64, warm bool, by string, iters, rounds int, partial bool) Outcome {
		return Outcome{Status: 200, Fit: &serve.FitResponse{Lambda: lambda, Warm: warm, AnsweredBy: by,
			Iters: iters, Rounds: rounds, Partial: partial}}
	}
	outcomes := []Outcome{
		fit(1, false, "triple", 90, 0, false),
		fit(1, true, "triple", 20, 0, false),
		fit(1, true, "cache", 0, 0, false),
		fit(2, false, "triple", 110, 0, false),
		fit(2, true, "triple", 5000, 0, true),
		fit(3, false, "world", 40, 40, false),
		fit(3, true, "world", 10, 10, false),
		fit(3, true, "triple", 30, 0, false),
		fit(4, true, "triple", 50, 0, false),
	}
	rep := summarize(Config{}, outcomes, time.Second)
	if rep.MeanWarmIters != 20 || rep.MeanColdIters != 65 || rep.PairedLambdas != 2 || rep.WarmFits != 5 || rep.Partial != 1 {
		t.Fatalf("warm mean %g, cold mean %g over %d lambdas, %d warm fits, %d partial; want 20, 65, 2, 5, 1",
			rep.MeanWarmIters, rep.MeanColdIters, rep.PairedLambdas, rep.WarmFits, rep.Partial)
	}
	if got := rep.Summary(); !strings.Contains(got, "  iters of solved fits at the same lambda: warm mean 20.0 vs cold mean 65.0 over 2 lambdas\n") {
		t.Fatalf("summary lacks the iteration means:\n%s", got)
	}

	rep = summarize(Config{}, []Outcome{outcomes[0], outcomes[3], outcomes[8]}, time.Second)
	if rep.PairedLambdas != 0 || rep.MeanWarmIters != 0 || rep.MeanColdIters != 0 {
		t.Fatalf("unpaired: warm mean %g, cold mean %g over %d lambdas", rep.MeanWarmIters, rep.MeanColdIters, rep.PairedLambdas)
	}
	if got := rep.Summary(); !strings.Contains(got, "no like-for-like pair") {
		t.Fatalf("summary of unpaired fits claims a pair:\n%s", got)
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

// TestRunStopsAtCancel: a closed-loop run cancelled while its first
// requests hang reports those requests and no more. The two in flight
// fail with the cancellation; the schedule's other eight were never
// sent, so they count neither as requests nor as errors.
func TestRunStopsAtCancel(t *testing.T) {
	arrived := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a read body lets the server see the client leave
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		<-arrived
		cancel()
	}()
	rep, err := Run(ctx, Config{BaseURL: ts.URL, Requests: 10, Concurrency: 2, Seed: 1,
		Dataset: serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 2 || rep.Errors != 2 || rep.OK != 0 || rep.Latency.N != 0 {
		t.Fatalf("%d requests, %d errors, %d ok; want the 2 sent, both failed", rep.N, rep.Errors, rep.OK)
	}
	if got := rep.Summary(); !strings.HasPrefix(got, "load: 2 requests") {
		t.Fatalf("summary counts unsent requests:\n%s", got)
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
