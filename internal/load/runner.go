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

// Outcome records one completed request.
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
	Config   Config    `json:"config"`
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
	// fits that ran a solve. Iterations, not rounds: a fit answered from
	// the triple runs local iterations and no communication round, and
	// a world fit reports both. Cache answers run no solve and partial
	// fits stop at the deadline, so neither counts.
	MeanWarmIters float64 `json:"mean_warm_iters"`
	MeanColdIters float64 `json:"mean_cold_iters"`
	// ServerStats is the server's own /stats snapshot after the run.
	ServerStats *serve.StatsSnapshot `json:"server_stats,omitempty"`
}

// Run executes the schedule for cfg against cfg.BaseURL and summarizes
// the outcomes. The request *schedule* is deterministic for a fixed
// seed; completion order (and therefore cache hit patterns under
// concurrency) depends on timing, as with any real load test.
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
				out[i] = doFit(ctx, client, cfg.BaseURL, &sched[i])
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
		if ctx.Err() != nil {
			break
		}
		if wait := sched[i].At - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
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

// summarize folds the outcomes into the report.
func summarize(cfg Config, outcomes []Outcome, wall time.Duration) *Report {
	rep := &Report{Config: cfg, N: len(outcomes), WallSec: wall.Seconds()}
	var lats []float64
	var warmIters, coldIters, warmN, coldN int
	for i := range outcomes {
		o := &outcomes[i]
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
		switch {
		case o.Fit.Partial, o.Fit.AnsweredBy == "cache":
		case o.Fit.Warm:
			warmIters += o.Fit.Iters
			warmN++
		default:
			coldIters += o.Fit.Iters
			coldN++
		}
	}
	sort.Float64s(lats)
	rep.Latency = NewHistogram(lats)
	if total := rep.PathHits + rep.PathMisses; total > 0 {
		rep.PathHitRate = float64(rep.PathHits) / float64(total)
	}
	if warmN > 0 {
		rep.MeanWarmIters = float64(warmIters) / float64(warmN)
	}
	if coldN > 0 {
		rep.MeanColdIters = float64(coldIters) / float64(coldN)
	}
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
		fmt.Fprintf(&b, "  iters of solved fits: warm mean %.1f vs cold mean %.1f\n",
			r.MeanWarmIters, r.MeanColdIters)
	}
	if sn := r.ServerStats; sn != nil {
		fmt.Fprintf(&b, "  certified hits (answered without a solve): %d of %d warm fits\n",
			sn.CertifiedHits, sn.WarmFits)
		fmt.Fprintf(&b, "  answered: %d triple, %d cache, %d world\n",
			sn.TripleFits, sn.CertifiedHits, sn.Fits-sn.TripleFits-sn.CertifiedHits)
	}
	return b.String()
}

func lambdaPattern(cfg Config) string {
	if cfg.Sweep {
		return fmt.Sprintf("lambda-path sweep x%d", cfg.SweepLen)
	}
	return "random-lambda mix"
}
