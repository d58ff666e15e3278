package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// TestMain doubles as the multi-process worker entry point: when
// dist.Launch (from the -transport tcp launcher path under test)
// re-executes this binary with a rank roster in the environment, it
// runs the real CLI instead of the test suite.
func TestMain(m *testing.M) {
	if _, _, ok := dist.LaunchEnv(); ok {
		if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rcsfista worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

// fastArgs keeps CLI tests in the sub-second range.
func fastArgs(extra ...string) []string {
	base := []string{
		"-dataset", "abalone", "-samples", "400",
		"-maxiter", "200", "-refiters", "800", "-plot=false",
	}
	return append(base, extra...)
}

func TestCLIRCSFISTA(t *testing.T) {
	out := runCLI(t, fastArgs("-procs", "4", "-k", "4", "-s", "2")...)
	if !strings.Contains(out, "algorithm rcsfista on P=4") {
		t.Fatalf("missing summary:\n%s", out)
	}
	if !strings.Contains(out, "communication rounds") {
		t.Fatalf("missing rounds:\n%s", out)
	}
}

func TestCLIAlgorithms(t *testing.T) {
	for _, algo := range []string{"sfista", "fista", "ista", "pn", "cocoa"} {
		out := runCLI(t, fastArgs("-algo", algo, "-procs", "2")...)
		if !strings.Contains(out, "algorithm "+algo) {
			t.Fatalf("%s: missing summary:\n%s", algo, out)
		}
	}
}

func TestCLILogistic(t *testing.T) {
	out := runCLI(t, fastArgs("-loss", "logistic", "-procs", "2", "-maxiter", "10", "-tol", "0")...)
	if !strings.Contains(out, "training accuracy") {
		t.Fatalf("missing accuracy:\n%s", out)
	}
}

// TestCLIMultiProcessTCP: -transport tcp spawns one OS process per
// rank over real localhost sockets, and the solve lands on the same
// objective bits as the in-process chan backend with the same seed.
func TestCLIMultiProcessTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	args := fastArgs("-procs", "3", "-k", "4", "-s", "2")
	inproc := runCLI(t, args...)
	multi := runCLI(t, append(args, "-transport", "tcp", "-calibrate")...)
	if !strings.Contains(multi, "launching 3 worker processes over localhost tcp") {
		t.Fatalf("missing launch notice:\n%s", multi)
	}
	if !strings.Contains(multi, "algorithm rcsfista on P=3 over tcp (calibrated(comet)") {
		t.Fatalf("missing worker summary on the calibrated machine:\n%s", multi)
	}
	if !strings.Contains(multi, "calibrated on P=3: alpha=") {
		t.Fatalf("missing calibration report:\n%s", multi)
	}
	// Same seed, same budget: the objective must agree bit for bit
	// across process boundaries.
	objOf := func(s string) string {
		i := strings.Index(s, "F(w) = ")
		if i < 0 {
			t.Fatalf("objective line missing:\n%s", s)
		}
		return s[i : i+strings.IndexByte(s[i:], '\n')]
	}
	if objOf(inproc) != objOf(multi) {
		t.Fatalf("objectives diverged across transports:\n%s\nvs\n%s", objOf(inproc), objOf(multi))
	}
}

// TestCLIWorkerFlags: explicit -rank/-peers join a hand-built roster
// (the path operators use when ranks live on different commands).
func TestCLIWorkerFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-rank", "0", "-peers", "x", "-algo", "fista", "-tol", "0"}, &out); err == nil {
		t.Fatal("-rank with a non-distributed algorithm accepted")
	}
	addrs, err := dist.ReserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	single := runCLI(t, fastArgs("-rank", "0", "-peers", addrs[0], "-k", "2", "-s", "1")...)
	if !strings.Contains(single, "algorithm rcsfista on P=1 over") {
		t.Fatalf("single-rank worker summary missing:\n%s", single)
	}
}

func TestCLIAutoTune(t *testing.T) {
	// abalone at N=200, P=8 on Comet: the Eq. 24 model picks the
	// largest k on the grid with S=8.
	out := runCLI(t, fastArgs("-k", "0", "-procs", "8")...)
	if !strings.Contains(out, "auto-tuned k=128 S=8 ") {
		t.Fatalf("auto-tune pick moved:\n%s", out)
	}
}

func TestCLISaveModel(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.json"
	out := runCLI(t, fastArgs("-save", path)...)
	if !strings.Contains(out, "model written to") {
		t.Fatalf("missing save line:\n%s", out)
	}
}

func TestCLIPlot(t *testing.T) {
	out := runCLI(t, "-dataset", "abalone", "-samples", "400",
		"-maxiter", "200", "-refiters", "800", "-plot=true")
	if !strings.Contains(out, "convergence") || !strings.Contains(out, "legend") {
		t.Fatalf("missing plot:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-algo", "nope", "-tol", "0"}, &out); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Logistic regression is spelled -loss logistic only, and cd and
	// prox-svrg name no engine: each is refused before any data loads
	// (the dataset named here does not exist).
	for _, algo := range []string{"logistic", "cd", "prox-svrg"} {
		err := run(context.Background(), []string{"-algo", algo, "-dataset", "nosuch"}, &out)
		if want := fmt.Sprintf("unknown algorithm %q", algo); err == nil || err.Error() != want {
			t.Fatalf("-algo %s -dataset nosuch: got %v, want %s", algo, err, want)
		}
	}
	if err := run(context.Background(), []string{"-dataset", "nope", "-tol", "0"}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run(context.Background(), []string{"-machine", "warp-drive", "-tol", "0"}, &out); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if err := run(context.Background(), []string{"-libsvm", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(context.Background(), []string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	// The rcsfista-only flags are checked before any world is launched
	// or dataset loaded: the dataset named here does not exist.
	for _, f := range [][]string{{"-activeset"}, {"-compress-tier", "f32"}} {
		err := run(context.Background(), append([]string{"-algo", "pn", "-dataset", "nosuch"}, f...), &out)
		if err == nil || !strings.Contains(err.Error(), f[0]) {
			t.Fatalf("-algo pn %v -dataset nosuch: got %v, want the %s error", f, err, f[0])
		}
	}
	err := run(context.Background(), []string{"-loss", "logistic", "-activeset", "-dataset", "nosuch"}, &out)
	if err == nil || err.Error() != "-activeset does not apply to -loss logistic" {
		t.Fatalf("-loss logistic -activeset: got %v", err)
	}
	// A misspelled -loss or -reg name is refused before the file named
	// by -libsvm, which does not exist, is opened.
	for _, c := range []struct{ flag, name, want string }{
		{"-loss", "hinge", `unknown loss "hinge"`},
		{"-reg", "l0", `unknown regularizer "l0"`},
	} {
		err := run(context.Background(), []string{c.flag, c.name, "-libsvm", "/does/not/exist"}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s %s -libsvm /does/not/exist: got %v, want the %s error", c.flag, c.name, err, c.want)
		}
	}
}

func TestCLITrainSavePredict(t *testing.T) {
	dir := t.TempDir()
	model := dir + "/model.json"
	runCLI(t, fastArgs("-save", model)...)
	out := runCLI(t, fastArgs("-predict", model)...)
	if !strings.Contains(out, "RMSE on") {
		t.Fatalf("missing RMSE line:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-predict", dir + "/missing.json"}, &buf); err == nil {
		t.Fatal("missing model accepted")
	}
}

// TestCLIPrintsGradMap pins the certificate line: printed under F(w)
// when the solve measured a gradient-mapping norm at w, absent when it
// did not — as in every CLI solve, none of which sets GradMapTol.
func TestCLIPrintsGradMap(t *testing.T) {
	var out bytes.Buffer
	printObjective(&out, &solver.Result{FinalObj: 0.25, FinalRelErr: math.NaN(), GradMap: 1.2345e-5})
	if want := "  F(w) = 0.25\n  gradient-mapping norm at w: 1.23e-05\n"; out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
	out.Reset()
	printObjective(&out, &solver.Result{FinalObj: 0.25, FinalRelErr: 0.5, GradMap: math.NaN()})
	if want := "  F(w) = 0.25, relerr = 0.5\n"; out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
	if s := runCLI(t, fastArgs("-procs", "2")...); strings.Contains(s, "gradient-mapping") {
		t.Fatalf("a solve without GradMapTol printed a norm:\n%s", s)
	}
}

func TestCLIRejectsZeroProcs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-procs", "0", "-tol", "0"}, &out); err == nil {
		t.Fatal("procs=0 accepted")
	}
}

func TestRunCancelledEmitsPartialModel(t *testing.T) {
	// A cancelled context must not abort the run with an error: the
	// partial model and trace are still emitted, and the saved model is
	// loadable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(ctx, []string{"-dataset", "abalone", "-procs", "2", "-tol", "0",
		"-maxiter", "50", "-plot=false", "-save", dir + "/model.json"}, &out)
	if err != nil {
		t.Fatalf("cancelled run errored: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "interrupted") {
		t.Fatalf("missing interruption notice:\n%s", s)
	}
	if !strings.Contains(s, "model written to") {
		t.Fatalf("partial model not saved:\n%s", s)
	}
	if _, err := solver.LoadModel(dir + "/model.json"); err != nil {
		t.Fatalf("partial model not loadable: %v", err)
	}
}
