package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"encoding/json"
	"os"

	"github.com/hpcgo/rcsfista/internal/load"
)

// TestRunSelfServe: the -selfserve path must complete a small sweep,
// pass the hit-rate gate, and write a well-formed JSON report.
func TestRunSelfServe(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-selfserve", "-n", "12", "-sweep", "-sweep-len", "4", "-conc", "2",
		"-seed", "1", "-dataset", "abalone", "-m", "200", "-d", "8", "-data-seed", "7",
		"-procs", "2", "-min-hit-rate", "0.5", "-o", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "lambda-path cache") {
		t.Fatalf("summary missing cache line:\n%s", buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.N != 12 || rep.Errors != 0 || rep.Latency.N == 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

// TestRunFlagErrors pins the CLI contract for misuse.
func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), nil, &buf); err == nil {
		t.Fatal("no -url and no -selfserve accepted")
	}
	if err := run(context.Background(), []string{"-url", "http://x", "-selfserve"}, &buf); err == nil {
		t.Fatal("-url with -selfserve accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunHitRateGate: an unreachable hit-rate threshold must fail the
// run (that is what makes loadgen usable as a CI gate).
func TestRunHitRateGate(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-selfserve", "-n", "4", "-cold", "-conc", "1",
		"-dataset", "abalone", "-m", "200", "-d", "8", "-data-seed", "7",
		"-procs", "1", "-min-hit-rate", "0.99",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "hit rate") {
		t.Fatalf("gate did not trip: %v", err)
	}
}

// TestRunInterrupted: a run whose context is already done sends
// nothing and says it was interrupted, not that its requests failed.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-selfserve", "-n", "4", "-dataset", "abalone", "-m", "200", "-d", "8"}, &buf)
	if !errors.Is(err, context.Canceled) || !strings.Contains(buf.String(), "load: 0 requests") {
		t.Fatalf("got %v, want the cancellation and no request counted:\n%s", err, buf.String())
	}
}
