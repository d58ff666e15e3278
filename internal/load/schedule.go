// Package load is the mctester-style harness for the serving layer: a
// rate-limited load generator that drives cmd/server's /fit endpoint
// with a seeded, reproducible request schedule and reports
// tachymeter-style latency percentiles, throughput and cache hit rates
// as JSON — the service-level numbers the bench trajectory tracks
// alongside ns/op.
//
// The schedule is a pure function of the Config: BuildSchedule(cfg)
// called twice yields byte-identical request sequences (lambdas,
// arrival offsets, everything), which is what makes load runs
// comparable across commits.
package load

import (
	"fmt"
	"math"
	"time"

	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/serve"
)

// Mode selects how the generator paces requests.
const (
	// ModeClosed runs Concurrency workers in a closed loop: each
	// issues its next request as soon as the previous one completes.
	// Offered load adapts to service rate; measures capacity.
	ModeClosed = "closed"
	// ModeOpen fires requests at seeded Poisson arrival times at
	// RatePerSec, regardless of completions. Offered load is fixed;
	// measures latency under a target rate (and queue growth beyond
	// capacity — expect 429s when the admission queue fills).
	ModeOpen = "open"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8731".
	BaseURL string `json:"base_url"`
	// Mode is ModeClosed (default) or ModeOpen.
	Mode string `json:"mode"`
	// Concurrency is the closed-loop worker count (default 4).
	Concurrency int `json:"concurrency"`
	// RatePerSec is the open-loop arrival rate (default 4).
	RatePerSec float64 `json:"rate_per_sec"`
	// Requests is the total request count (default 64).
	Requests int `json:"requests"`
	// Seed drives the schedule (lambda choices, arrival times).
	Seed uint64 `json:"seed"`

	// Dataset names the instance every fit trains on.
	Dataset serve.DatasetRef `json:"dataset"`
	// Sweep selects the lambda pattern: true walks a geometric
	// lambda-ratio path of SweepLen points from RatioHi down to
	// RatioLo, cycling — the regularization-path workload the
	// warm-start cache is built for. False draws log-uniform random
	// ratios in [RatioLo, RatioHi] — the adversarial mix.
	Sweep    bool    `json:"sweep"`
	SweepLen int     `json:"sweep_len"`
	RatioHi  float64 `json:"ratio_hi"`
	RatioLo  float64 `json:"ratio_lo"`

	// MaxIter/GradMapTol/Procs pass through to the fit requests (zero
	// keeps server defaults).
	MaxIter    int     `json:"max_iter,omitempty"`
	GradMapTol float64 `json:"gradmap_tol,omitempty"`
	Procs      int     `json:"procs,omitempty"`
	// Warm disables the server's warm-start lookup when false.
	Warm bool `json:"warm"`
	// DeadlineMS is the per-request deadline passed to the server.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Timeout is the HTTP client timeout (default DeadlineMS + 30s).
	Timeout time.Duration `json:"-"`
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 4
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Dataset.Name == "" {
		c.Dataset = serve.DatasetRef{Name: "covtype", Samples: 2000, Features: 54, Seed: 42}
	}
	if c.SweepLen <= 0 {
		c.SweepLen = 16
	}
	if c.RatioHi <= 0 {
		c.RatioHi = 0.5
	}
	if c.RatioLo <= 0 {
		c.RatioLo = 0.05
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Duration(c.DeadlineMS)*time.Millisecond + 30*time.Second
	}
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Mode != ModeClosed && c.Mode != ModeOpen {
		return fmt.Errorf("load: unknown mode %q (closed|open)", c.Mode)
	}
	if c.RatioLo > c.RatioHi {
		return fmt.Errorf("load: ratio_lo %g > ratio_hi %g", c.RatioLo, c.RatioHi)
	}
	return nil
}

// Request is one scheduled fit: its position, its open-loop arrival
// offset, and the request body to POST.
type Request struct {
	Index int           `json:"index"`
	At    time.Duration `json:"at"`
	Fit   serve.FitRequest
}

// BuildSchedule expands the config into the full request sequence —
// a pure function of cfg, so a fixed seed reproduces the schedule
// exactly (the determinism smoke test pins this).
func BuildSchedule(cfg Config) []Request {
	cfg = cfg.WithDefaults()
	r := rng.New(cfg.Seed ^ 0x10ad6e4_c0ffee)
	warm := cfg.Warm
	logHi, logLo := math.Log(cfg.RatioHi), math.Log(cfg.RatioLo)
	sched := make([]Request, cfg.Requests)
	var at time.Duration
	for i := range sched {
		var ratio float64
		if cfg.Sweep {
			// Geometric path RatioHi -> RatioLo, cycling every SweepLen.
			j := i % cfg.SweepLen
			frac := 0.0
			if cfg.SweepLen > 1 {
				frac = float64(j) / float64(cfg.SweepLen-1)
			}
			ratio = math.Exp(logHi + (logLo-logHi)*frac)
		} else {
			ratio = math.Exp(logLo + (logHi-logLo)*r.Float64())
		}
		if cfg.Mode == ModeOpen && i > 0 {
			// Poisson arrivals: exponential interarrival at RatePerSec.
			gap := -math.Log(1-r.Float64()) / cfg.RatePerSec
			at += time.Duration(gap * float64(time.Second))
		}
		ds := cfg.Dataset
		sched[i] = Request{
			Index: i,
			At:    at,
			Fit: serve.FitRequest{
				Dataset:     &ds,
				LambdaRatio: ratio,
				MaxIter:     cfg.MaxIter,
				GradMapTol:  cfg.GradMapTol,
				Procs:       cfg.Procs,
				Warm:        &warm,
				DeadlineMS:  cfg.DeadlineMS,
			},
		}
	}
	return sched
}
