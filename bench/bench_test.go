package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func quickConfig(t *testing.T) config {
	t.Helper()
	replayBudget = time.Millisecond
	return config{seed: 1, quick: true, outDir: t.TempDir(), stdout: io.Discard}
}

// TestQuickPasses runs both passes of every workload at test size:
// every op verifies, every registered metric comes out once with its
// unit, each metric is measured by at least one workload, and no
// workload leaves a goroutine behind.
func TestQuickPasses(t *testing.T) {
	cfg := quickConfig(t)
	measuredBy := map[string]int{}
	for _, w := range workloads {
		baseline := runtime.NumGoroutine()
		for _, traced := range []bool{false, true} {
			r, err := runPass(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: failed=%d failures=%v harness errors=%v", w.Name, traced, r.Failed, r.Failures, r.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, registry has %d", w.Name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			for _, name := range r.Measured {
				measuredBy[name]++
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
		dist.VerifyNoGoroutineLeaks(t, baseline)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if measuredBy[d.Name] == 0 {
			t.Errorf("metric %s is measured by no workload", d.Name)
		}
	}
}

// TestManifestMatchesRegistry pins BENCHMARK.json to the registry and
// to the limits the benchmark driver enforces.
func TestManifestMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	var got, reg any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reg) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate with `go run ./bench -manifest > BENCHMARK.json`")
	}

	m := registryManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
}

// TestDecoratedSolveBitIdentical: the Comm decorator must not change
// what it measures. W, FinalObj, the round and update counts and the
// cost ledger of a decorated solve equal the bare solve's on both
// transports at every tier.
func TestDecoratedSolveBitIdentical(t *testing.T) {
	for _, backend := range []string{"chan", "tcp"} {
		for _, tier := range []string{"", "f32", "i8", "auto"} {
			spec := &lsSpec{Dataset: "mnist", M: 600, D: 40, DataSeed: 1, Backend: backend,
				K: 4, S: 2, GradMapTol: 1e-4, ActiveSet: tier == "auto", Pipeline: tier == "auto", Tier: tier}
			in, err := spec.setup(1)
			if err != nil {
				t.Fatalf("%s/%q: %v", backend, tier, err)
			}
			// Fixed i8 stalls above a tight tolerance; identity needs the
			// same updates, not convergence.
			in.opts.MaxIter = 400
			bare, _, _, err := in.solve(benchProcs, nil)
			if err != nil {
				t.Fatalf("%s/%q bare: %v", backend, tier, err)
			}
			tr := newTracer()
			decorated, stats, _, err := in.solve(benchProcs, tr.now)
			if err != nil {
				t.Fatalf("%s/%q decorated: %v", backend, tier, err)
			}
			if diff := sameSolve(bare, decorated); diff != "" {
				t.Errorf("%s/%q: decorated solve differs: %s", backend, tier, diff)
			}
			if len(stats) != benchProcs || len(stats[0].spans) == 0 {
				t.Errorf("%s/%q: decorator recorded nothing", backend, tier)
			}
			if len(stats[0].entries) != len(stats[1].entries) {
				t.Errorf("%s/%q: ranks saw %d and %d blocking collectives", backend, tier, len(stats[0].entries), len(stats[1].entries))
			}
			switch tier {
			case "f32":
				if stats[0].tier[dist.TierF32] == 0 {
					t.Errorf("%s/f32: no f32 collective seen: %v", backend, stats[0].tier)
				}
			case "i8":
				if stats[0].tier[dist.TierI8] == 0 {
					t.Errorf("%s/i8: no i8 collective seen: %v", backend, stats[0].tier)
				}
			}
		}
	}
}

// TestSeedKeepsTheWork: the seed draws a feature permutation, which
// must change the input and leave the iteration count and the optimum
// alone; the same seed must give the same input.
func TestSeedKeepsTheWork(t *testing.T) {
	spec := quickened(workloads[0]).ls
	a, err := spec.setup(1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := spec.setup(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.setup(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.prob.X, again.prob.X) || sameSolve(a.warm, again.warm) != "" {
		t.Error("the same seed gave different inputs or a different solve")
	}
	if reflect.DeepEqual(a.prob.X.Val, b.prob.X.Val) {
		t.Error("seeds 1 and 2 gave the same matrix layout")
	}
	if a.warm.Rounds != b.warm.Rounds || a.warm.Iters != b.warm.Iters {
		t.Errorf("rounds/updates moved with the seed: %d/%d vs %d/%d", a.warm.Rounds, a.warm.Iters, b.warm.Rounds, b.warm.Iters)
	}
	if rel := (a.warm.FinalObj - b.warm.FinalObj) / a.warm.FinalObj; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("optimum moved with the seed: %.15g vs %.15g", a.warm.FinalObj, b.warm.FinalObj)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	op := tr.add(span{Name: "op", Start: 0, End: 100, Parent: -1})
	tr.add(span{Name: "a", Start: 10, End: 30, Parent: op})
	tr.add(span{Name: "b", Start: 20, End: 50, Parent: op})           // overlaps a: 10..50 covered once
	tr.add(span{Name: "c", Start: 90, End: 120, Parent: op})          // clipped to the parent
	tr.add(span{Name: "r1", Start: 0, End: 100, Parent: op, Rank: 1}) // another rank
	tr.add(span{Name: "x", Start: 60, End: 70, Parent: 1})            // a grandchild
	if got := tr.selfTime(op, 0); got != 50 {
		t.Errorf("self time %d, want 50", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50, rate, setup float64, failed int) *resultFile {
		r := newReport("ls_bw_tcp", false)
		r.Attempted, r.Failed = 10, failed
		r.set("op_p50_ms", p50)
		r.set("ops_per_s", rate)
		r.set("setup_s", setup)
		return &resultFile{Passes: []*report{r}}
	}
	base := mk(100, 10, 1, 0)
	// Just inside and just outside each metric's bound.
	in, out := map[string]float64{}, map[string]float64{}
	for _, d := range endToEnd {
		in[d.Name], out[d.Name] = d.Bound-0.01, d.Bound+0.01
	}
	cases := []struct {
		name string
		b    *resultFile
		want int
	}{
		{"same", mk(100, 10, 1, 0), 0},
		{"better", mk(50, 20, 0.5, 0), 0},
		{"inside bounds", mk(100*(1+in["op_p50_ms"]), 10*(1-in["ops_per_s"]), 1+in["setup_s"], 0), 0},
		{"latency outside", mk(100*(1+out["op_p50_ms"]), 10, 1, 0), 1},
		{"throughput outside", mk(100, 10*(1-out["ops_per_s"]), 1, 0), 1},
		{"setup outside", mk(100, 10, 1+out["setup_s"], 0), 1},
		{"failed ops", mk(100, 10, 1, 1), 1},
		{"nothing shared", &resultFile{}, 2},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareResults(&out, base, c.b); got != c.want {
			t.Errorf("%s: status %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestDriverForm runs the command line the benchmark driver uses and
// checks the last line of standard output.
func TestDriverForm(t *testing.T) {
	replayBudget = time.Millisecond
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "ls_fill_chan", "--seed", "7", "--seconds", "0", "--trace", trace,
			"-quick", "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: keys %v, want exactly correct, attempted, failed, metrics", trace, line)
		}
		var cl contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cl); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(perLayer)
		}
		if !cl.Correct || cl.Attempted < 1 || cl.Failed != 0 || len(cl.Metrics) != want {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d metrics=%d (want %d)",
				trace, cl.Correct, cl.Attempted, cl.Failed, len(cl.Metrics), want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
