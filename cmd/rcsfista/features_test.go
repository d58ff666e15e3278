package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/scenario"
	"github.com/hpcgo/rcsfista/internal/serve"
)

// spellings names each feature as a CLI flag and as a /fit field ("":
// none); a refusal starts with its feature's spelling on either surface.
var spellings = map[scenario.Feature][2]string{
	scenario.RegParams:    {"-l2/-groups", "l2/groups"},
	scenario.Loss:         {"-loss", "loss"},
	scenario.NonL1Reg:     {"-reg", "reg"},
	scenario.ActiveSet:    {"-activeset", ""},
	scenario.CompressTier: {"-compress-tier", ""},
	scenario.ProcessWorld: {"-transport tcp", ""},
	scenario.SampleRate:   {"", "b"},
	scenario.SampleSeed:   {"", "seed"},
}

// cliCheck runs the CLI on a dataset that does not exist. A refusal is
// the table's, made before any load: it returns the refused feature and
// true. A combination the table admits reaches the load and fails
// there: it returns false.
func cliCheck(t *testing.T, args []string) (scenario.Feature, bool) {
	t.Helper()
	err := run(context.Background(), append(args, "-dataset", "nosuch", "-tol", "0", "-plot=false"), io.Discard)
	var r *scenario.Refusal
	switch {
	case errors.As(err, &r):
		return r.Feature, true
	case err == nil || !strings.Contains(err.Error(), "nosuch"):
		t.Fatalf("%v: got %v, want a refusal or the load error", args, err)
	}
	return 0, false
}

// TestFeatureTableAcrossSurfaces: every combination of loss,
// regularizer, sampling rate and seed sent to POST /fit is refused with
// a 400 naming the feature the table refuses — l2 beside l1 anywhere, b
// or seed beside least squares, whose triple reads every sample and
// draws none — or it runs, answered by the triple for least squares and
// by a world otherwise. The CLI spelling of the same combination without
// b or seed, which the CLI always holds, refuses the same feature before
// loading any data, or gets as far as the load. The CLI-only engines and
// features refuse theirs alike.
func TestFeatureTableAcrossSurfaces(t *testing.T) {
	sv := serve.New(serve.Config{Workers: 2, QueueCap: 64, Procs: 2, MaxIter: 30})
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()
	off := false
	for _, loss := range []string{"", "huber"} {
		for _, reg := range []string{"", "en", "l1+l2"} {
			for _, sampling := range []struct {
				b    float64
				seed uint64
			}{{0, 0}, {0.2, 0}, {0, 9}, {0.2, 9}} {
				b, seed := sampling.b, sampling.seed
				req := serve.FitRequest{
					Dataset:     &serve.DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7},
					LambdaRatio: 0.3, Loss: loss, B: b, Seed: seed, MaxIter: 30, Warm: &off, NoStore: true,
				}
				var args []string
				if loss != "" {
					args = append(args, "-loss", loss)
				}
				switch reg {
				case "en":
					req.Reg, req.L2 = "en", 0.01
					args = append(args, "-reg", "en", "-l2", "0.01")
				case "l1+l2":
					req.L2 = 0.01
					args = append(args, "-l2", "0.01")
				}
				want, refused := scenario.Feature(0), true
				switch {
				case reg == "l1+l2":
					want = scenario.RegParams
				case loss == "" && b != 0:
					want = scenario.SampleRate
				case loss == "" && seed != 0:
					want = scenario.SampleSeed
				default:
					refused = false
				}
				name := fmt.Sprintf("loss=%q reg=%q b=%g seed=%d", loss, reg, b, seed)

				body, _ := json.Marshal(&req)
				resp, err := ts.Client().Post(ts.URL+"/fit", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var reply struct {
					Error      string `json:"error"`
					AnsweredBy string `json:"answered_by"`
				}
				status := resp.StatusCode
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				resp.Body.Close()
				answeredBy := "triple"
				if loss != "" {
					answeredBy = "world"
				}
				switch {
				case refused && (status != http.StatusBadRequest || !strings.HasPrefix(reply.Error, spellings[want][1]+" ")):
					t.Fatalf("%s: /fit %d %q, want a 400 naming %s", name, status, reply.Error, spellings[want][1])
				case !refused && (status != http.StatusOK || reply.AnsweredBy != answeredBy):
					t.Fatalf("%s: /fit %d %q answered by %q, want it answered by %s", name, status, reply.Error, reply.AnsweredBy, answeredBy)
				}

				if b != 0 || seed != 0 {
					continue // the CLI's -b and -seed always hold a value, on every engine
				}
				got, cliRefused := cliCheck(t, args)
				if cliRefused != refused || got != want {
					t.Fatalf("%s: CLI %v refused %t (feature %d), /fit refused %t (feature %d)", name, args, cliRefused, got, refused, want)
				}
			}
		}
	}

	// The CLI-only engines, which /fit cannot name.
	for _, tc := range []struct {
		args []string
		want scenario.Feature
	}{
		{[]string{"-algo", "cocoa", "-reg", "en", "-l2", "0.01"}, scenario.NonL1Reg},
		{[]string{"-algo", "pn", "-reg", "ridge"}, scenario.NonL1Reg},
		{[]string{"-algo", "pn", "-activeset"}, scenario.ActiveSet},
		{[]string{"-algo", "fista", "-activeset"}, scenario.ActiveSet},
		{[]string{"-algo", "fista", "-compress-tier", "off"}, scenario.CompressTier},
		{[]string{"-algo", "ista", "-transport", "tcp"}, scenario.ProcessWorld},
		{[]string{"-algo", "ista", "-rank", "0", "-peers", "127.0.0.1:1"}, scenario.ProcessWorld},
		{[]string{"-algo", "cocoa", "-loss", "logistic"}, scenario.Loss},
		{[]string{"-algo", "fista", "-loss", "quantile"}, scenario.Loss},
		{[]string{"-algo", "cocoa", "-l2", "0.5"}, scenario.RegParams},
		{[]string{"-activeset", "-loss", "huber"}, scenario.ActiveSet},
		{[]string{"-compress-tier", "f32", "-loss", "quantile"}, scenario.CompressTier},
		{[]string{"-loss", "logistic", "-compress-tier", "f32"}, scenario.CompressTier},
	} {
		err := run(context.Background(), append(tc.args, "-dataset", "nosuch", "-tol", "0"), io.Discard)
		flag := spellings[tc.want][0]
		if tc.want == scenario.ProcessWorld && !strings.Contains(strings.Join(tc.args, " "), "-transport") {
			flag = "-rank/-peers"
		}
		var r *scenario.Refusal
		if !errors.As(err, &r) || r.Feature != tc.want || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Fatalf("%v: got %v, want a refusal naming %s", tc.args, err, flag)
		}
	}
	for _, args := range [][]string{
		{"-loss", "logistic", "-reg", "en", "-l2", "0.01"},
		{"-algo", "fista", "-reg", "group", "-groups", "size:2"},
		{"-algo", "ista", "-reg", "ridge"},
		{"-algo", "pn", "-k", "2"},
	} {
		if f, refused := cliCheck(t, args); refused {
			t.Fatalf("%v: refused feature %d", args, f)
		}
	}
}

// TestNonL1RegHonoured: every -algo name whose engine the feature table
// lets take -reg ridge solves the ridge problem, not the l1 one. The
// list comes from the table, so an engine that admits a regularizer it
// does not read fails here whichever name it has: a -reg ridge -l2 0.05
// solve must report an F(w) other than the -reg l1 solve's.
func TestNonL1RegHonoured(t *testing.T) {
	objOf := func(args ...string) string {
		out := runCLI(t, fastArgs(append(args, "-samples", "200", "-maxiter", "100", "-tol", "0")...)...)
		i := strings.Index(out, "F(w) = ")
		if i < 0 {
			t.Fatalf("%v: objective line missing:\n%s", args, out)
		}
		return out[i : i+strings.IndexByte(out[i:], '\n')]
	}
	checked := 0
	for algo := range engines {
		if _, err := checkFeatures(algo, "chan", scenario.Fit{Reg: "ridge", RegParams: true}); err != nil {
			continue
		}
		checked++
		l1 := objOf("-algo", algo, "-procs", "2")
		ridge := objOf("-algo", algo, "-procs", "2", "-reg", "ridge", "-l2", "0.05")
		if l1 == ridge {
			t.Errorf("-algo %s: -reg ridge reports the -reg l1 objective %q", algo, l1)
		}
	}
	if checked == 0 {
		t.Fatal("the table admits -reg ridge on no -algo name")
	}
}
