package main

import (
	"fmt"
	"strings"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// Multi-process plumbing for -transport tcp: the parent process
// re-executes itself once per rank (dist.Launch) and each child joins
// the localhost TCP mesh (dist.Connect) before running its share of
// the solve. The solvers cannot tell the difference — they see the
// same dist.Comm either way, and the golden fixtures pin the results
// to the in-process backend bit for bit.

// workerRoster decides whether this process is one rank of a
// multi-process world and returns its rank and the full address
// roster. The environment set by dist.Launch is the usual path;
// explicit -rank/-peers flags override it for hand-run rendezvous.
func workerRoster(rankFlag int, peersFlag string) (rank int, peers []string, isWorker bool) {
	rank, peers, isWorker = dist.LaunchEnv()
	if rankFlag >= 0 && peersFlag != "" {
		rank, peers, isWorker = rankFlag, strings.Split(peersFlag, ","), true
	}
	return rank, peers, isWorker
}

// solveOnComm runs one rank's share of a solve on the live
// communicator and rebuilds the world-level result fields
// solvercore.RunWorld would produce: the critical-path cost is the
// component-wise max over ranks (one OpMax allreduce) and the modeled
// time evaluates it on the communicator's machine — the calibrated
// one, when -calibrate measured it.
func solveOnComm(c *dist.TCPComm, solve func(c dist.Comm) (*solver.Result, error)) (*solver.Result, error) {
	*c.Cost() = perf.Cost{}
	res, err := solve(c)
	if res != nil {
		res.Cost = dist.MaxCostAcross(c, *c.Cost())
		res.ModelSeconds = c.Machine().Seconds(res.Cost)
	}
	return res, err
}

// calibrateWorld measures alpha/beta/gamma on a fresh p-rank world of
// the named transport and returns the fitted machine (identical bits
// on every rank; rank 0's copy is reported). This is the
// single-process counterpart of the worker-mode calibration that runs
// directly on the connected communicator.
func calibrateWorld(transport string, p int, mach perf.Machine) (dist.Calibration, error) {
	w, err := dist.NewWorldOn(transport, p, mach)
	if err != nil {
		return dist.Calibration{}, err
	}
	var cal dist.Calibration
	err = w.Run(func(c dist.Comm) error {
		got := dist.Calibrate(c, dist.CalibrationOptions{})
		if c.Rank() == 0 {
			cal = got
		}
		return nil
	})
	if err != nil {
		return dist.Calibration{}, fmt.Errorf("calibration failed: %w", err)
	}
	return cal, nil
}
