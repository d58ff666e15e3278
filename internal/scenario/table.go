package scenario

import "fmt"

// Engine is what a fit runs on. The CLI maps its -algo names to an
// engine; /fit names none, and asks as Served. Each surface then asks
// Check what the engine allows.
type Engine int

const (
	// Default names no engine: LossPN for a loss other than ls,
	// RCSFISTA otherwise (the CLI's -algo rcsfista).
	Default Engine = iota
	// Served names no engine either: LossPN for a loss other than ls,
	// Triple otherwise (every /fit).
	Served
	// RCSFISTA has SFISTA (k = S = 1) as a corner.
	RCSFISTA
	// Triple is FISTA on the least-squares triple (G, r), the paper's
	// b = 1 corner, certified by one data pass: /fit's least squares.
	Triple
	// LossPN is proximal Newton for any loss (CLI -algo logistic).
	LossPN
	// The CLI-only least-squares baselines (-algo fista and ista, cd,
	// prox-svrg, pn, cocoa).
	DataFISTA
	CD
	ProxSVRG
	PN
	CoCoA
)

// Feature is a setting of a fit that not every engine allows.
type Feature uint8

const (
	RegParams    Feature = 1 << iota // -l2/-groups: only en, ridge and group read them
	Loss                             // a loss other than ls, which picks LossPN
	NonL1Reg                         // a regularizer other than l1
	ActiveSet                        // active-set screening
	CompressTier                     // any wire tier, "off" included
	ProcessWorld                     // one OS process per rank
	SampleRate                       // b: only /fit asks, the CLI's -b always holds one
)

// table lists the features each engine allows. Loss is no column: only
// LossPN runs a loss other than ls, and Check routes a fit there only
// from Default or Served.
var table = [...]Feature{
	RCSFISTA:  NonL1Reg | ActiveSet | CompressTier | ProcessWorld | SampleRate,
	Triple:    NonL1Reg,
	LossPN:    NonL1Reg | ProcessWorld | SampleRate,
	DataFISTA: NonL1Reg,
	CD:        NonL1Reg,
	ProxSVRG:  NonL1Reg | SampleRate,
	PN:        ProcessWorld | SampleRate,
	CoCoA:     ProcessWorld,
}

// Names spells each feature as its surface does: a flag or a field.
type Names map[Feature]string

// Fit is a surface's question: the engine its names select (Algo
// spells it), the reg and loss names ("" is l1, ls) and its features.
type Fit struct {
	Engine                                                       Engine
	Algo, Reg, Loss                                              string
	RegParams, ActiveSet, CompressTier, ProcessWorld, SampleRate bool
}

// Refusal is Check's error, phrased in the asking surface's names.
type Refusal struct {
	Feature Feature
	msg     string
}

func (r *Refusal) Error() string { return r.msg }

// Check returns the engine f runs on, or a *Refusal naming the first
// refused feature in Feature order. A loss other than ls beside a named
// engine is refused; beside Default or Served it selects LossPN.
// Options.Validate keeps its own rules (a screenable regularizer, tier
// spellings).
func Check(f Fit, names Names) (Engine, error) {
	l1, ls := f.Reg == "" || f.Reg == "l1", f.Loss == "" || f.Loss == "ls"
	refuse := func(ft Feature, format string, args ...any) (Engine, error) {
		return 0, &Refusal{ft, fmt.Sprintf(format, args...)}
	}
	e, label := f.Engine, f.Algo
	switch {
	case f.RegParams && l1:
		return refuse(RegParams, "%s apply to %s en|ridge|group, not l1", names[RegParams], names[NonL1Reg])
	case !ls && e != Default && e != Served:
		return refuse(Loss, "%s %s runs on the proximal newton engine, not %s", names[Loss], f.Loss, f.Algo)
	case !ls:
		e, label = LossPN, names[Loss]+" "+f.Loss
	case e == Default:
		e = RCSFISTA
	case e == Served:
		e = Triple
	}
	switch a := table[e]; {
	case !l1 && a&NonL1Reg == 0:
		return refuse(NonL1Reg, "%s %s does not apply to %s", names[NonL1Reg], f.Reg, label)
	case f.ActiveSet && a&ActiveSet == 0:
		return refuse(ActiveSet, "%s does not apply to %s", names[ActiveSet], label)
	case f.CompressTier && a&CompressTier == 0:
		return refuse(CompressTier, "%s does not apply to %s", names[CompressTier], label)
	case f.ProcessWorld && a&ProcessWorld == 0:
		return refuse(ProcessWorld, "%s does not apply to %s", names[ProcessWorld], label)
	case f.SampleRate && a&SampleRate == 0:
		return refuse(SampleRate, "%s does not apply to %s, which reads every sample (b = 1)", names[SampleRate], label)
	}
	return e, nil
}
