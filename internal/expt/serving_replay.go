package expt

import (
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// servingColdGrid fits one lambda grid cold (warm=false) against one
// server, out of path order, the way a grid search arrives. The first
// fit fills the dataset's least-squares triple before its round 0 and
// every later one reads it (the gram column); every fit after the first
// replays the Hessian batches the dataset's stream recorded and extends
// it where it runs longer. Each is held bit for bit — objective, w,
// iterations, rounds, stop — to the same request on a fresh server,
// where no triple and no stream exist yet. A mismatch panics, and so
// does a grid that fills the triple other than once.
func servingColdGrid(cfg Config, dsRef serve.DatasetRef, procs, maxIter int, transport string) *trace.Table {
	scfg := serve.Config{
		Workers: 1, QueueCap: 8, Transport: transport,
		Procs: procs, Machine: cfg.Machine, MaxIter: maxIter,
		DefaultDeadline: 10 * time.Minute, MaxDeadline: 10 * time.Minute,
	}
	sv := serve.New(scfg)
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()

	const points = 8
	order := []int{3, 0, 6, 1, 7, 4, 2, 5}
	off := false
	tbl := &trace.Table{
		Title:   fmt.Sprintf("Serving: cold lambda grid on one resident triple and batch stream (P=%d, %d points, warm=false)", procs, points),
		Headers: []string{"lambda/lambda_max", "rounds", "replayed", "recorded", "gram", "vs fresh server"},
	}
	var rounds, replayed int
	for _, i := range order {
		r := math.Exp(math.Log(0.5) + (math.Log(0.05)-math.Log(0.5))*float64(i)/float64(points-1))
		req := &serve.FitRequest{Dataset: &dsRef, LambdaRatio: r, Procs: procs, Warm: &off, ReturnW: true}
		before := sv.Stats().Snapshot()
		got := servingFit(ts.URL, req)
		after := sv.Stats().Snapshot()
		gram := "resident"
		if after.GramFills > before.GramFills {
			gram = "filled"
		}
		want := servingFreshFit(scfg, req)
		if want.ReplayedRounds != 0 || bits(got.Objective) != bits(want.Objective) || !sameBits(got.W, want.W) ||
			got.Iters != want.Iters || got.Rounds != want.Rounds || got.Converged != want.Converged || got.Nnz != want.Nnz {
			panic(fmt.Sprintf("expt: serving: cold fit at ratio %.3g replayed %d rounds and returned objective %.17g in %d rounds; "+
				"stream-less %.17g in %d rounds (or another w)", r, got.ReplayedRounds, got.Objective, got.Rounds, want.Objective, want.Rounds))
		}
		rounds += got.Rounds
		replayed += got.ReplayedRounds
		tbl.AddRow(fmt.Sprintf("%.3g", r), fmt.Sprintf("%d", got.Rounds), fmt.Sprintf("%d", got.ReplayedRounds),
			fmt.Sprintf("%d", after.StreamRoundsRecorded-before.StreamRoundsRecorded), gram, "bit-equal")
	}
	if replayed == 0 {
		panic("expt: serving: no cold fit of the grid replayed a round")
	}
	sn := sv.Stats().Snapshot()
	if sn.GramFills != 1 {
		panic(fmt.Sprintf("expt: serving: the cold grid filled the triple %d times, want once", sn.GramFills))
	}
	tbl.AddRow("total", fmt.Sprintf("%d", rounds), fmt.Sprintf("%d (%.0f%%)", replayed, 100*float64(replayed)/float64(rounds)),
		fmt.Sprintf("%d", sn.StreamRoundsRecorded), fmt.Sprintf("1 fill, %.1f kB", float64(sn.GramBytes)/1e3),
		fmt.Sprintf("%d/%d, stream %.0f kB", points, points, float64(sn.StreamBytes)/1e3))
	return tbl
}

// servingFreshFit answers req on a server of its own, whose dataset has
// no triple and no batch stream yet.
func servingFreshFit(scfg serve.Config, req *serve.FitRequest) *serve.FitResponse {
	sv := serve.New(scfg)
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()
	return servingFit(ts.URL, req)
}
