// Command loadgen drives a LASSO-as-a-service instance with a seeded,
// reproducible request schedule and reports latency percentiles,
// throughput and cache hit rates as JSON (mctester-style).
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8731 [-n 64] [-mode closed|open]
//	        [-conc 4] [-rate 4] [-sweep] [-seed 1] [-o report.json]
//	loadgen -selfserve [...]   # spin up an in-process server instead
//
// With -sweep the lambdas walk a geometric regularization path
// (cycling), the workload the server's warm-start cache accelerates;
// without it they are a log-uniform random mix. -min-hit-rate makes
// the run a gate: exit 1 when the lambda-path cache hit rate falls
// below the threshold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcgo/rcsfista/internal/load"
	"github.com/hpcgo/rcsfista/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of the server under test")
	selfserve := fs.Bool("selfserve", false, "start an in-process server instead of targeting -url")
	mode := fs.String("mode", "closed", "pacing: closed (concurrency-bound) or open (rate-bound)")
	conc := fs.Int("conc", 4, "closed-loop concurrency")
	rate := fs.Float64("rate", 4, "open-loop arrival rate (req/s)")
	n := fs.Int("n", 64, "total requests")
	seed := fs.Uint64("seed", 1, "schedule seed (fixed seed -> identical schedule)")
	sweep := fs.Bool("sweep", false, "lambda-path sweep instead of random-lambda mix")
	sweepLen := fs.Int("sweep-len", 16, "points per lambda-path pass")
	ratioHi := fs.Float64("ratio-hi", 0.5, "largest lambda/lambda_max")
	ratioLo := fs.Float64("ratio-lo", 0.05, "smallest lambda/lambda_max")
	dataset := fs.String("dataset", "covtype", "registered dataset name")
	samples := fs.Int("m", 2000, "dataset samples")
	features := fs.Int("d", 0, "dataset features (0 = registry default)")
	dataSeed := fs.Uint64("data-seed", 42, "dataset generator seed")
	maxIter := fs.Int("maxiter", 0, "iteration budget per fit (0 = server default)")
	procs := fs.Int("procs", 0, "world size per fit (0 = server default)")
	cold := fs.Bool("cold", false, "disable warm starts (cold baseline run)")
	deadlineMS := fs.Int("deadline-ms", 0, "per-request deadline (0 = server default)")
	out := fs.String("o", "", "write the JSON report to this file")
	minHitRate := fs.Float64("min-hit-rate", -1, "fail unless lambda-path hit rate >= this (e.g. 0.5)")
	transport := fs.String("transport", "chan", "selfserve: dist backend (chan|tcp)")
	workers := fs.Int("workers", 4, "selfserve: worker pool size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := *url
	if *selfserve {
		if base != "" {
			return fmt.Errorf("-url and -selfserve are mutually exclusive")
		}
		sv := serve.New(serve.Config{Workers: *workers, QueueCap: 4 * *n, Transport: *transport})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: sv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = hs.Shutdown(shCtx)
			sv.Close()
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "loadgen: self-serving on %s\n", base)
	}
	if base == "" {
		return fmt.Errorf("either -url or -selfserve is required")
	}

	cfg := load.Config{
		BaseURL:     base,
		Mode:        *mode,
		Concurrency: *conc,
		RatePerSec:  *rate,
		Requests:    *n,
		Seed:        *seed,
		Dataset:     serve.DatasetRef{Name: *dataset, Samples: *samples, Features: *features, Seed: *dataSeed},
		Sweep:       *sweep,
		SweepLen:    *sweepLen,
		RatioHi:     *ratioHi,
		RatioLo:     *ratioLo,
		MaxIter:     *maxIter,
		Procs:       *procs,
		Warm:        !*cold,
		DeadlineMS:  *deadlineMS,
	}
	rep, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Summary())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loadgen: report written to %s\n", *out)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests failed", rep.Errors)
	}
	if *minHitRate >= 0 && rep.PathHitRate < *minHitRate {
		return fmt.Errorf("lambda-path cache hit rate %.2f below the %.2f gate",
			rep.PathHitRate, *minHitRate)
	}
	return nil
}
