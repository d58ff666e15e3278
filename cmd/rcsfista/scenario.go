// Scenario plumbing for the CLI: asking the feature table which engine
// the flags select and resolving -reg/-l2/-groups into a prox operator.
package main

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/scenario"
)

// engines maps each -algo name to its engine. rcsfista, the flag's
// default, names none, so a -loss other than ls picks proximal Newton.
var engines = map[string]scenario.Engine{
	"rcsfista": scenario.Default,
	"sfista":   scenario.RCSFISTA,
	"fista":    scenario.DataFISTA,
	"ista":     scenario.DataFISTA,
	"pn":       scenario.PN,
	"cocoa":    scenario.CoCoA,
}

// checkFeatures asks the feature table which engine -algo selects for
// the fit f, before any world is launched or data loaded, and refuses
// what the engine does not allow in the flags' own names.
func checkFeatures(algo, transport string, f scenario.Fit) (scenario.Engine, error) {
	e, ok := engines[algo]
	if !ok {
		return 0, fmt.Errorf("unknown algorithm %q", algo)
	}
	world := "-transport tcp"
	if transport != "tcp" {
		world = "-rank/-peers"
	}
	f.Engine, f.Algo = e, "-algo "+algo
	return scenario.Check(f, scenario.Names{
		scenario.RegParams: "-l2/-groups", scenario.Loss: "-loss", scenario.NonL1Reg: "-reg",
		scenario.ActiveSet: "-activeset", scenario.CompressTier: "-compress-tier", scenario.ProcessWorld: world,
	})
}

// buildScenarioReg resolves -reg/-l2/-groups against the loaded problem
// dimension. A nil operator means "default l1 from Options.Lambda".
func buildScenarioReg(name string, l2 float64, groupsSpec string, prob *data.Problem) (prox.Operator, error) {
	if name == "" || name == "l1" {
		return nil, nil
	}
	return scenario.BuildReg(scenario.RegSpec{
		Name: name, Lambda: prob.Lambda, L2: l2, Groups: groupsSpec,
	}, prob.X.Rows)
}
