package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/serve"
)

// Outcome records one sent request. A request the run stopped before
// sending keeps the zero Outcome: no status and no error.
type Outcome struct {
	Index     int     `json:"index"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	Err       string  `json:"err,omitempty"`
	// Fit is the decoded response for 200s (nil otherwise).
	Fit *serve.FitResponse `json:"-"`
}

// Report is the JSON artifact of one load run — the service-level
// record CI archives per commit.
type Report struct {
	Config Config `json:"config"`
	// N counts the requests sent: all of the schedule unless the run's
	// context ended first.
	N        int       `json:"n"`
	OK       int       `json:"ok"`
	Rejected int       `json:"rejected"` // 429s
	Partial  int       `json:"partial"`  // deadline-truncated 200s
	Errors   int       `json:"errors"`   // transport errors + non-2xx minus 429
	Latency  Histogram `json:"latency"`
	// WallSec and ThroughputRPS cover completed requests end to end.
	WallSec       float64 `json:"wall_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Cache effectiveness, from the per-response flags.
	PathHits    int     `json:"path_hits"`
	PathMisses  int     `json:"path_misses"`
	PathHitRate float64 `json:"path_hit_rate"`
	WarmFits    int     `json:"warm_fits"`
	// Warm-start economics: mean solver iterations of the warm vs cold
	// fits that ran a solve, like for like: only lambdas with both a warm
	// and a cold solved fit count, PairedLambdas of them, each with equal
	// weight. Iterations, not rounds: a fit answered from the triple runs
	// local iterations and no communication round, and a world fit
	// reports both. Cache answers run no solve and partial fits stop at
	// the deadline, so neither counts.
	MeanWarmIters float64 `json:"mean_warm_iters"`
	MeanColdIters float64 `json:"mean_cold_iters"`
	PairedLambdas int     `json:"paired_lambdas"`
	// AnsweredBy counts the run's fits by the path that answered them
	// (FitResponse.AnsweredBy): "triple", "cache" or "world".
	AnsweredBy map[string]int `json:"answered_by"`
	// ServerStats is the server's own /stats snapshot after the run: its
	// running totals, which count fits from before the run too.
	ServerStats *serve.StatsSnapshot `json:"server_stats,omitempty"`
}

// Run executes the schedule for cfg against cfg.BaseURL and summarizes
// the outcomes. The request *schedule* is deterministic for a fixed
// seed; completion order (and therefore cache hit patterns under
// concurrency) depends on timing, as with any real load test. Once ctx
// ends no further request is sent, and the report covers the sent ones.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL is required")
	}
	sched := BuildSchedule(cfg)
	client := &http.Client{Timeout: cfg.Timeout}

	outcomes := make([]Outcome, len(sched))
	start := time.Now()
	switch cfg.Mode {
	case ModeClosed:
		runClosed(ctx, cfg, client, sched, outcomes)
	case ModeOpen:
		runOpen(ctx, cfg, client, sched, outcomes)
	}
	wall := time.Since(start)
	rep := summarize(cfg, outcomes, wall)
	rep.ServerStats = fetchStats(ctx, client, cfg.BaseURL)
	return rep, nil
}

// runClosed drives Concurrency workers over the schedule in order.
func runClosed(ctx context.Context, cfg Config, client *http.Client, sched []Request, out []Outcome) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() == nil {
					out[i] = doFit(ctx, client, cfg.BaseURL, &sched[i])
				}
			}
		}()
	}
	for i := range sched {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
}

// runOpen fires each request at its scheduled arrival time.
func runOpen(ctx context.Context, cfg Config, client *http.Client, sched []Request, out []Outcome) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		if wait := sched[i].At - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = doFit(ctx, client, cfg.BaseURL, &sched[i])
		}(i)
	}
	wg.Wait()
}

// doFit POSTs one scheduled fit and times it.
func doFit(ctx context.Context, client *http.Client, base string, req *Request) Outcome {
	o := Outcome{Index: req.Index}
	body, err := json.Marshal(&req.Fit)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/fit", bytes.NewReader(body))
	if err != nil {
		o.Err = err.Error()
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	o.LatencyMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var fr serve.FitResponse
		if derr := json.NewDecoder(resp.Body).Decode(&fr); derr != nil {
			o.Err = derr.Error()
		} else {
			o.Fit = &fr
		}
	}
	return o
}

// fetchStats reads the server's /stats snapshot (nil on any failure —
// the report is still valid without it).
func fetchStats(ctx context.Context, client *http.Client, base string) *serve.StatsSnapshot {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var sn serve.StatsSnapshot
	if json.NewDecoder(resp.Body).Decode(&sn) != nil {
		return nil
	}
	return &sn
}

// summarize folds the sent outcomes into the report.
func summarize(cfg Config, outcomes []Outcome, wall time.Duration) *Report {
	rep := &Report{Config: cfg, WallSec: wall.Seconds(), AnsweredBy: map[string]int{}}
	var lats []float64
	// iters[lambda] holds the iteration sum and count of the solved warm
	// (0, 1) and cold (2, 3) fits at lambda.
	iters := map[float64][4]int{}
	for i := range outcomes {
		o := &outcomes[i]
		if o.Status == 0 && o.Err == "" {
			continue // never sent
		}
		rep.N++
		switch {
		case o.Status == http.StatusOK && o.Err == "":
			rep.OK++
			lats = append(lats, o.LatencyMS)
		case o.Status == http.StatusTooManyRequests:
			rep.Rejected++
		default:
			rep.Errors++
		}
		if o.Fit == nil {
			continue
		}
		rep.AnsweredBy[o.Fit.AnsweredBy]++
		if o.Fit.Partial {
			rep.Partial++
		}
		if o.Fit.PathCacheHit {
			rep.PathHits++
		} else {
			rep.PathMisses++
		}
		if o.Fit.Warm && !o.Fit.Partial {
			rep.WarmFits++
		}
		// A deadline-clipped solve's iteration count measures the
		// deadline, not convergence, and a cache answer ran no solve:
		// both stay out of the iteration means.
		if o.Fit.Partial || o.Fit.AnsweredBy == "cache" {
			continue
		}
		at, side := iters[o.Fit.Lambda], 2
		if o.Fit.Warm {
			side = 0
		}
		at[side] += o.Fit.Iters
		at[side+1]++
		iters[o.Fit.Lambda] = at
	}
	sort.Float64s(lats)
	rep.Latency = NewHistogram(lats)
	if total := rep.PathHits + rep.PathMisses; total > 0 {
		rep.PathHitRate = float64(rep.PathHits) / float64(total)
	}
	var lambdas []float64
	for l, at := range iters {
		if at[1] > 0 && at[3] > 0 {
			lambdas = append(lambdas, l)
		}
	}
	sort.Float64s(lambdas)
	for _, l := range lambdas {
		at, n := iters[l], float64(len(lambdas))
		rep.MeanWarmIters += float64(at[0]) / float64(at[1]) / n
		rep.MeanColdIters += float64(at[2]) / float64(at[3]) / n
	}
	rep.PairedLambdas = len(lambdas)
	if rep.WallSec > 0 {
		rep.ThroughputRPS = float64(rep.OK) / rep.WallSec
	}
	return rep
}

// Summary renders the human-readable one-screen digest.
func (r *Report) Summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "load: %d requests (%s, %s) in %.2fs -> %.1f req/s\n",
		r.N, r.Config.Mode, lambdaPattern(r.Config), r.WallSec, r.ThroughputRPS)
	fmt.Fprintf(&b, "  ok %d, rejected(429) %d, partial %d, errors %d\n",
		r.OK, r.Rejected, r.Partial, r.Errors)
	fmt.Fprintf(&b, "  latency ms: p50 %.1f, p95 %.1f, p99 %.1f, max %.1f (mean %.1f)\n",
		r.Latency.P50MS, r.Latency.P95MS, r.Latency.P99MS, r.Latency.MaxMS, r.Latency.MeanMS)
	fmt.Fprintf(&b, "  lambda-path cache: %d hits / %d lookups (%.0f%%)\n",
		r.PathHits, r.PathHits+r.PathMisses, 100*r.PathHitRate)
	if r.WarmFits > 0 {
		fmt.Fprintf(&b, "  iters of solved fits at the same lambda: %s\n", r.WarmVsCold())
	}
	if len(r.AnsweredBy) > 0 {
		fmt.Fprintf(&b, "  certified hits (answered without a solve): %d of %d warm fits\n",
			r.AnsweredBy["cache"], r.WarmFits)
		fmt.Fprintf(&b, "  answered: %d triple, %d cache, %d world\n",
			r.AnsweredBy["triple"], r.AnsweredBy["cache"], r.AnsweredBy["world"])
	}
	return b.String()
}

// WarmVsCold renders the like-for-like warm vs cold iteration means.
func (r *Report) WarmVsCold() string {
	if r.PairedLambdas == 0 {
		return "no lambda has both a warm and a cold solved fit (no like-for-like pair)"
	}
	return fmt.Sprintf("warm mean %.1f vs cold mean %.1f over %d lambdas", r.MeanWarmIters, r.MeanColdIters, r.PairedLambdas)
}

func lambdaPattern(cfg Config) string {
	if cfg.Sweep {
		return fmt.Sprintf("lambda-path sweep x%d", cfg.SweepLen)
	}
	return "random-lambda mix"
}
