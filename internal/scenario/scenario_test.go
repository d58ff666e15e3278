package scenario

import (
	"errors"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/prox"
)

func TestBuildReg(t *testing.T) {
	if op, err := BuildReg(RegSpec{Lambda: 0.2}, 8); err != nil || op.(prox.L1).Lambda != 0.2 {
		t.Fatalf("default reg = %v, %v", op, err)
	}
	op, err := BuildReg(RegSpec{Name: "en", Lambda: 0.1, L2: 0.01}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if en := op.(prox.ElasticNet); en.Lambda1 != 0.1 || en.Lambda2 != 0.01 {
		t.Fatalf("en = %+v", en)
	}
	if _, err := BuildReg(RegSpec{Name: "en", Lambda: 0.1}, 8); err == nil {
		t.Fatal("en without l2 accepted")
	}
	if op, err := BuildReg(RegSpec{Name: "ridge", L2: 0.3}, 8); err != nil || op.(prox.Ridge).Lambda != 0.3 {
		t.Fatalf("ridge = %v, %v", op, err)
	}
	// Ridge falls back to Lambda when L2 unset.
	if op, _ := BuildReg(RegSpec{Name: "ridge", Lambda: 0.2}, 8); op.(prox.Ridge).Lambda != 0.2 {
		t.Fatal("ridge lambda fallback broken")
	}
	gop, err := BuildReg(RegSpec{Name: "group", Lambda: 0.2, Groups: "size:4"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if gl := gop.(prox.GroupL2); len(gl.Groups) != 2 || gl.Lambda != 0.2 {
		t.Fatalf("group = %+v", gl)
	}
	for _, bad := range []RegSpec{{Name: "group", Lambda: 0.1}, {Name: "group", Lambda: 0.1, Groups: "size:0"}, {Name: "nope"}} {
		if _, err := BuildReg(bad, 8); err == nil {
			t.Fatalf("bad spec %+v accepted", bad)
		}
	}
}

func TestBuildLoss(t *testing.T) {
	for name, want := range map[string]string{
		"": "squared", "ls": "squared", "logistic": "logistic",
		"huber": "huber", "quantile": "quantile",
	} {
		l, err := BuildLoss(LossSpec{Name: name, Delta: 0.5, Tau: 0.7})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if l.Name() != want {
			t.Fatalf("%q -> %q, want %q", name, l.Name(), want)
		}
	}
	if _, err := BuildLoss(LossSpec{Name: "hinge"}); err == nil {
		t.Fatal("unknown loss accepted")
	}
	if l, _ := BuildLoss(LossSpec{Name: "quantile", Tau: 0.9, Eps: 0.1}); l.(erm.Quantile).Tau != 0.9 {
		t.Fatal("quantile params not threaded")
	}
}

func TestTagsDistinguishScenarios(t *testing.T) {
	// The cache-poisoning property: every cell of the matrix must have
	// a distinct (RegTag, LossTag) pair, and defaults must collapse.
	if RegTag(nil) != "l1" || RegTag(prox.L1{Lambda: 0.5}) != "l1" {
		t.Fatal("default reg tags do not collapse to l1")
	}
	if LossTag(nil) != "ls" || LossTag(erm.Squared{}) != "ls" {
		t.Fatal("default loss tags do not collapse to ls")
	}
	groups, _ := prox.ParseGroups("size:2", 4)
	groups2, _ := prox.ParseGroups("size:3", 4)
	regs := []prox.Operator{
		nil,
		prox.ElasticNet{Lambda1: 0.1, Lambda2: 0.01},
		prox.ElasticNet{Lambda1: 0.1, Lambda2: 0.02},
		prox.Ridge{Lambda: 0.1},
		prox.GroupL2{Lambda: 0.1, Groups: groups},
		prox.GroupL2{Lambda: 0.1, Groups: groups2},
	}
	seen := map[string]bool{}
	for _, r := range regs {
		tag := RegTag(r)
		if seen[tag] {
			t.Fatalf("duplicate reg tag %q", tag)
		}
		seen[tag] = true
	}
	losses := []erm.Loss{
		nil, erm.Logistic{}, erm.Huber{Delta: 0.5}, erm.Huber{Delta: 1},
		erm.Quantile{Tau: 0.5}, erm.Quantile{Tau: 0.9},
	}
	seenL := map[string]bool{}
	for _, l := range losses {
		tag := LossTag(l)
		if seenL[tag] {
			t.Fatalf("duplicate loss tag %q", tag)
		}
		seenL[tag] = true
	}
	// λ is excluded from the reg tag: the λ-path cache handles it.
	if RegTag(prox.L1{Lambda: 0.1}) != RegTag(prox.L1{Lambda: 0.9}) {
		t.Fatal("l1 tag should not depend on lambda")
	}
}

// TestCheckTable pins the feature table engine by engine: each feature
// alone is allowed exactly where the surfaces allowed it before they
// shared one table, a refusal names its feature, and Default and Served
// resolve by the loss. The triple reads every sample, so it alone of the
// engines /fit reaches refuses b.
func TestCheckTable(t *testing.T) {
	allowed := map[Engine]Feature{
		RCSFISTA:  NonL1Reg | ActiveSet | CompressTier | ProcessWorld | SampleRate,
		Triple:    NonL1Reg,
		LossPN:    NonL1Reg | ProcessWorld | SampleRate,
		DataFISTA: NonL1Reg,
		CD:        NonL1Reg,
		ProxSVRG:  NonL1Reg | SampleRate,
		PN:        ProcessWorld | SampleRate,
		CoCoA:     ProcessWorld,
	}
	names := Names{RegParams: "l2", Loss: "loss", NonL1Reg: "reg", ActiveSet: "as", CompressTier: "tier", ProcessWorld: "world", SampleRate: "b"}
	for e, ok := range allowed {
		for _, ft := range []Feature{NonL1Reg, ActiveSet, CompressTier, ProcessWorld, SampleRate} {
			f := Fit{Engine: e, Algo: "algo", ActiveSet: ft == ActiveSet, CompressTier: ft == CompressTier,
				ProcessWorld: ft == ProcessWorld, SampleRate: ft == SampleRate}
			if ft == NonL1Reg {
				f.Reg = "en"
			}
			if e == LossPN {
				f.Engine, f.Loss = Default, "huber"
			}
			got, err := Check(f, names)
			var r *Refusal
			switch {
			case ok&ft != 0 && (err != nil || got != e):
				t.Fatalf("engine %d, feature %d: got engine %d, %v; want it allowed", e, ft, got, err)
			case ok&ft == 0 && (!errors.As(err, &r) || r.Feature != ft || !strings.HasPrefix(err.Error(), names[ft]+" ")):
				t.Fatalf("engine %d, feature %d: got %v; want it refused", e, ft, err)
			}
		}
		if e != LossPN {
			if _, err := Check(Fit{Engine: e, Algo: "algo", Loss: "quantile"}, names); err == nil || err.(*Refusal).Feature != Loss {
				t.Fatalf("engine %d took a loss: %v", e, err)
			}
		}
	}
	if _, err := Check(Fit{Engine: LossPN, Algo: "algo", Loss: "huber"}, names); err == nil || err.(*Refusal).Feature != Loss {
		t.Fatalf("a loss beside a named LossPN: %v", err)
	}
	for _, reg := range []string{"", "l1"} {
		if _, err := Check(Fit{Reg: reg, RegParams: true}, names); err == nil || err.(*Refusal).Feature != RegParams {
			t.Fatalf("l2/groups beside %q: %v", reg, err)
		}
	}
	if e, err := Check(Fit{Reg: "ridge", RegParams: true, Loss: "ls"}, names); e != RCSFISTA || err != nil {
		t.Fatalf("default least squares: %d, %v", e, err)
	}
	if e, err := Check(Fit{Engine: Served, Reg: "group"}, names); e != Triple || err != nil {
		t.Fatalf("served least squares: %d, %v", e, err)
	}
	if e, err := Check(Fit{Engine: Served, Loss: "huber", SampleRate: true}, names); e != LossPN || err != nil {
		t.Fatalf("served huber at a sampling rate: %d, %v", e, err)
	}
}
