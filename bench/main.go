// Command bench is the repository benchmark: four solve-to-tolerance
// workloads and two /fit workloads, each measured end to end with
// tracing off and layer by layer in a separate traced pass. Every layer
// is measured from outside, by timing calls into its public functions;
// README.md in this directory is the metric dictionary.
//
//	go run ./bench --workload ls_bw_tcp --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1                 # every workload, both passes
//	go run ./bench -compare a.json b.json  # two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// contractLine is the last line of standard output of a single
// workload run, the shape the benchmark driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what a run of every workload writes and -compare reads.
type resultFile struct {
	Record runRecord `json:"record"`
	// Passes holds one report per workload and pass.
	Passes []*report `json:"passes"`
}

type config struct {
	seed    uint64
	seconds int
	quick   bool
	outDir  string
	stdout  io.Writer
}

// runPass runs one pass of one workload and prints its metrics. A
// traced pass also writes its spans to outDir.
func runPass(w workload, cfg config, traced bool) (*report, error) {
	if cfg.quick {
		w = quickened(w)
	}
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.quick {
		window = 0
	}
	// Ops per set-up whatever the window: a traced pass needs one bare
	// and one decorated op.
	minOps := 1
	if traced {
		minOps = 2
	}
	tr := newTracer()
	var r *report
	var err error
	if w.ls != nil {
		r, err = runLS(w, cfg.seed, window, minOps, traced, tr)
	} else {
		r, err = runServe(w, cfg.seed, window, minOps, traced, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.finish()
	r.print(cfg.stdout)
	if traced {
		path := filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(cfg.stdout, "  %d spans written to %s\n", len(tr.spans), path)
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", runSeconds, "length of the timed window of each pass")
	trace := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced pass; both")
	quick := fs.Bool("quick", false, "tiny shapes and 2 ops per window (tests)")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for traces and the result file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the registry defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(stderr, "bench: WARNING: %d CPU for %d ranks: the ranks time-share one core and every timing below measures the scheduler, not the program\n",
			runtime.NumCPU(), benchProcs)
	}
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, stdout: stdout}
	out := resultFile{Record: newRunRecord(*seed, *seconds, *quick)}
	ok := true
	for _, w := range selected {
		for _, traced := range passes {
			r, err := runPass(w, cfg, traced)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			ok = ok && r.correct()
			out.Passes = append(out.Passes, r)
		}
	}
	if len(out.Passes) == 1 {
		// One workload, one pass: the driver's form. The object is the
		// last line of standard output.
		r := out.Passes[0]
		line := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
			Metrics: map[string]contractValue{}}
		for k, v := range r.Metrics {
			line.Metrics[k] = contractValue{v.Value, v.Unit}
		}
		buf, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(buf))
	} else {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
		if err := writeResult(path, &out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "result written to %s\n", path)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: at least one op failed verification")
		return 1
	}
	return 0
}

func writeResult(path string, out *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
