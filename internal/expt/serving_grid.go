package expt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"time"

	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// servingColdGrid fits one lambda grid cold (warm=false) against one
// server, out of path order, the way a grid search arrives, every fit
// answered from the dataset's triple with no world. The first fit fills
// the least-squares triple in-process and every later one reads it (the
// gram column). Each is held bit for bit — objective, w, iterations,
// stop, path — to the same request on a fresh server, where no triple
// exists yet. A mismatch panics, and so does a grid that fills the
// triple other than once.
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
		Title:   fmt.Sprintf("Serving: cold lambda grid on one resident triple (P=%d, %d points, warm=false)", procs, points),
		Headers: []string{"lambda/lambda_max", "path", "iters", "gram", "vs fresh server", "digest"},
	}
	var iters int
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
		if bits(got.Objective) != bits(want.Objective) || !sameBits(got.W, want.W) ||
			got.Iters != want.Iters || got.Rounds != want.Rounds || got.Converged != want.Converged || got.Nnz != want.Nnz ||
			got.AnsweredBy != want.AnsweredBy || got.AnsweredBy != "triple" {
			panic(fmt.Sprintf("expt: serving: cold fit at ratio %.3g answered by %s returned objective %.17g in %d iterations; "+
				"fresh server: %s, %.17g in %d iterations (or another w)", r, got.AnsweredBy, got.Objective, got.Iters,
				want.AnsweredBy, want.Objective, want.Iters))
		}
		iters += got.Iters
		tbl.AddRow(fmt.Sprintf("%.3g", r), got.AnsweredBy, fmt.Sprintf("%d", got.Iters), gram, "bit-equal", fitDigest(got))
	}
	tbl.AddRow("total", "", fmt.Sprintf("%d", iters), "", fmt.Sprintf("%d/%d", points, points), "")
	sn := sv.Stats().Snapshot()
	if sn.GramFills != 1 {
		panic(fmt.Sprintf("expt: serving: the cold grid filled the triple %d times, want once", sn.GramFills))
	}
	if sn.TripleFits != points {
		panic(fmt.Sprintf("expt: serving: %d triple-answered fits, want %d", sn.TripleFits, points))
	}
	tbl.AddRow("resident", "", "", fmt.Sprintf("1 fill, %.1f kB", float64(sn.GramBytes)/1e3), "", "")
	return tbl
}

// fitDigest is FNV-1a (64-bit) over the bits of a fit's w, then its
// iteration count, in hex: a fit that returned its w keeps its digest
// exactly when it keeps both.
func fitDigest(fr *serve.FitResponse) string {
	if fr.W == nil {
		panic("expt: serving: digest of a fit that returned no w")
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range fr.W {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(fr.Iters))
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// servingFreshFit answers req on a server of its own, whose dataset has
// no triple yet.
func servingFreshFit(scfg serve.Config, req *serve.FitRequest) *serve.FitResponse {
	sv := serve.New(scfg)
	ts := httptest.NewServer(sv.Handler())
	defer func() {
		ts.Close()
		sv.Close()
	}()
	return servingFit(ts.URL, req)
}
