package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/serve"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// coldReq is a warm=false fit of smallRef at ratio. It pins the
// default sampling rate b = 0.1, which runs it on a world with the
// dataset's batch streams: a fit that leaves b, k, s and solver unset
// is answered from the triple instead (triple_test.go).
func coldReq(ratio float64) *serve.FitRequest {
	off := false
	return &serve.FitRequest{Dataset: smallRef(), LambdaRatio: ratio, Warm: &off, ReturnW: true, B: 0.1}
}

// fitRaw posts req and returns the raw reply.
func fitRaw(t *testing.T, client *http.Client, base string, req *serve.FitRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, client, base+"/fit", string(body))
	if status != http.StatusOK {
		t.Fatalf("fit status %d: %s", status, raw)
	}
	return raw
}

// workFields matches the reply fields that count work done.
var workFields = regexp.MustCompile(`"(elapsed_ms|model_seconds|replayed_rounds)": [^,\n]*`)

// smallBytes is the stream budget of smallRef: the bytes of its X and y.
func smallBytes(t *testing.T) int64 {
	t.Helper()
	ref := smallRef()
	p, err := data.LoadWith(ref.Name, ref.Samples, ref.Features, ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return solver.DataBytes(p.X, p.Y)
}

// roundBytes is the size of one recorded k = 1 round of smallRef.
func roundBytes() int64 {
	d := smallRef().Features
	return 8 * int64(mat.PackedLen(d)+d)
}

// tripleBytes is the size of smallRef's kept least-squares triple: the
// packed G, r and c.
func tripleBytes() int64 {
	d := smallRef().Features
	return 8 * int64(mat.PackedLen(d)+d+1)
}

// TestReplayedReplyIsTheColdOne: a warm=false fit on a dataset whose
// stream a fit at another lambda recorded replays it, and its reply is
// the stream-less server's byte for byte apart from the fields that
// count work — elapsed_ms, model_seconds and replayed_rounds.
func TestReplayedReplyIsTheColdOne(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	recorder := coldReq(0.3)
	recorder.MaxIter = 400
	doFit(t, client, ts.URL, recorder)
	replayed := fitRaw(t, client, ts.URL, coldReq(0.2))

	// The control fits its first model on another seed, whose stream is
	// another, so both replies carry the same model id.
	_, ctl := newTestServer(t, fastConfig())
	other := coldReq(0.3)
	other.Seed = 43
	doFit(t, ctl.Client(), ctl.URL, other)
	fresh := fitRaw(t, ctl.Client(), ctl.URL, coldReq(0.2))

	var r, f serve.FitResponse
	if json.Unmarshal(replayed, &r) != nil || json.Unmarshal(fresh, &f) != nil {
		t.Fatal("undecodable reply")
	}
	if r.ReplayedRounds == 0 || f.ReplayedRounds != 0 || r.Rounds == 0 {
		t.Fatalf("replayed %d of %d rounds, control replayed %d", r.ReplayedRounds, r.Rounds, f.ReplayedRounds)
	}
	if a, b := workFields.ReplaceAll(replayed, nil), workFields.ReplaceAll(fresh, nil); string(a) != string(b) {
		t.Fatalf("replies differ:\n%s\nvs\n%s", a, b)
	}
	if r.ModelSeconds >= f.ModelSeconds {
		t.Fatalf("model seconds %g replayed vs %g fresh: replayed rounds must bill nothing", r.ModelSeconds, f.ModelSeconds)
	}
}

// TestStreamKeys: a dataset's streams are keyed by (procs, seed, b, k).
// A fit that differs in any of them neither replays nor disturbs
// another key's stream; one that differs in anything else replays.
func TestStreamKeys(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	base := func() *serve.FitRequest { r := coldReq(0.3); r.MaxIter, r.GradMapTol = 10, -1; return r }
	if got := doFit(t, client, ts.URL, base()); got.ReplayedRounds != 0 {
		t.Fatalf("first fit replayed %d rounds", got.ReplayedRounds)
	}
	for name, edit := range map[string]func(r *serve.FitRequest){
		"procs": func(r *serve.FitRequest) { r.Procs = 1 },
		"seed":  func(r *serve.FitRequest) { r.Seed = 7 },
		"b":     func(r *serve.FitRequest) { r.B = 0.2 },
		"k":     func(r *serve.FitRequest) { r.K = 2 },
	} {
		r := base()
		edit(r)
		if got := doFit(t, client, ts.URL, r); got.ReplayedRounds != 0 {
			t.Fatalf("%s: a fit on another key replayed %d rounds", name, got.ReplayedRounds)
		}
	}
	for name, edit := range map[string]func(r *serve.FitRequest){
		"lambda": func(r *serve.FitRequest) { r.LambdaRatio = 0.25 },
		"reg":    func(r *serve.FitRequest) { r.Reg, r.L2 = "en", 0.1 },
		"s":      func(r *serve.FitRequest) { r.S = 2 },
		"warm":   func(r *serve.FitRequest) { r.Warm = nil },
	} {
		r := base()
		edit(r)
		if got := doFit(t, client, ts.URL, r); got.ReplayedRounds == 0 {
			t.Fatalf("%s: a fit on the same key replayed nothing", name)
		}
	}
	// Five keys, 10 rounds each at k = 1, 5 at k = 2.
	sn := getStats(t, client, ts.URL)
	if want := int64(4*10 + 5); sn.StreamRoundsRecorded != want {
		t.Fatalf("recorded %d rounds over five keys, want %d", sn.StreamRoundsRecorded, want)
	}
}

// TestStreamBudgetKeepsPrefix: a fit longer than the dataset's budget
// keeps its triple, filled before round 0, and a prefix that fits in
// the rest of the bytes of X and y; a repeat replays that prefix, runs
// the rest live, and answers bit for bit as before.
func TestStreamBudgetKeepsPrefix(t *testing.T) {
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	budget, per := smallBytes(t), roundBytes()
	req := coldReq(0.3)
	req.GradMapTol, req.MaxIter = -1, int(2*budget/per)
	first := doFit(t, client, ts.URL, req)
	sn := getStats(t, client, ts.URL)
	held := (budget - tripleBytes()) / per
	if sn.StreamRoundsRecorded != held || sn.StreamBytes != held*per || first.Rounds <= int(held) ||
		sn.GramBytes != tripleBytes() || sn.GramFills != 1 {
		t.Fatalf("a %d-round fit recorded %d rounds (%d bytes) and kept %d triple bytes (%d fills) under a %d-byte budget, want %d rounds and one %d-byte triple",
			first.Rounds, sn.StreamRoundsRecorded, sn.StreamBytes, sn.GramBytes, sn.GramFills, budget, held, tripleBytes())
	}
	again := doFit(t, client, ts.URL, req)
	if again.ReplayedRounds != int(held) || again.Rounds != first.Rounds || again.Iters != first.Iters ||
		!sameBits(again.W, first.W) || !sameBits([]float64{again.Objective}, []float64{first.Objective}) {
		t.Fatalf("repeat replayed %d rounds: %d rounds, objective %.17g; first %d rounds, objective %.17g (or w differs)",
			again.ReplayedRounds, again.Rounds, again.Objective, first.Rounds, first.Objective)
	}
	if sn := getStats(t, client, ts.URL); sn.StreamBytes != held*per || sn.StreamRoundsReplayed != held || sn.GramFills != 1 {
		t.Fatalf("after the repeat: %d bytes, %d rounds replayed, %d fills", sn.StreamBytes, sn.StreamRoundsReplayed, sn.GramFills)
	}
}

// TestStreamsLeaveWithTheDataset: evicting a dataset drops its streams,
// and the next fit on it records afresh.
func TestStreamsLeaveWithTheDataset(t *testing.T) {
	cfg := fastConfig()
	cfg.DatasetCap = 1
	_, ts := newTestServer(t, cfg)
	client := ts.Client()
	req := coldReq(0.3)
	req.MaxIter, req.GradMapTol = 20, -1
	doFit(t, client, ts.URL, req)
	if sn := getStats(t, client, ts.URL); sn.StreamBytes != 20*roundBytes() {
		t.Fatalf("stream bytes %d after 20 rounds, want %d", sn.StreamBytes, 20*roundBytes())
	}
	other := coldReq(0.3)
	other.Dataset = &serve.DatasetRef{Name: "abalone", Samples: 100, Features: 8, Seed: 8}
	other.MaxIter, other.GradMapTol = 10, -1
	doFit(t, client, ts.URL, other)
	if sn := getStats(t, client, ts.URL); sn.DatasetEvictions != 1 || sn.StreamBytes != 10*roundBytes() {
		t.Fatalf("after eviction: %d evictions, %d stream bytes, want 1 and %d", sn.DatasetEvictions, sn.StreamBytes, 10*roundBytes())
	}
	if got := doFit(t, client, ts.URL, req); got.ReplayedRounds != 0 || got.DatasetCacheHit {
		t.Fatalf("a fit on the reloaded dataset replayed %d rounds (dataset hit %t)", got.ReplayedRounds, got.DatasetCacheHit)
	}
}

// TestStreamGridConcurrent: two workers fit one lambda grid at once,
// in opposite orders, racing to record and replay one stream and to
// fill one triple (the CI serving job runs it under -race). Every reply
// equals the handle-less solve bit for bit, every recorded round is
// held exactly once, and one triple is kept.
func TestStreamGridConcurrent(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers, cfg.QueueCap = 2, 8
	_, ts := newTestServer(t, cfg)
	client := ts.Client()
	ratios := []float64{0.4, 0.3, 0.2, 0.15}
	var mu sync.Mutex
	replies := map[float64][]*serve.FitResponse{}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ratios))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range ratios {
				ratio := ratios[i]
				if g == 1 {
					ratio = ratios[len(ratios)-1-i]
				}
				body, _ := json.Marshal(coldReq(ratio))
				resp, err := client.Post(ts.URL+"/fit", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var fr serve.FitResponse
				err = json.NewDecoder(resp.Body).Decode(&fr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ratio %g: status %d, %v", ratio, resp.StatusCode, err)
					return
				}
				mu.Lock()
				replies[ratio] = append(replies[ratio], &fr)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	most := 0
	for ratio, rs := range replies {
		want := directZeroRound(t, rs[0].Lambda, nil, cfg.Procs)
		for _, r := range rs {
			if r.Rounds != want.Rounds || r.Iters != want.Iters || !sameBits(r.W, want.W) ||
				!sameBits([]float64{r.Objective}, []float64{want.FinalObj}) {
				t.Fatalf("ratio %g: %d rounds, objective %.17g; stream-less %d rounds, %.17g (or w differs)",
					ratio, r.Rounds, r.Objective, want.Rounds, want.FinalObj)
			}
		}
		most = max(most, want.Rounds)
	}
	sn := getStats(t, client, ts.URL)
	held := min(int64(most), (smallBytes(t)-tripleBytes())/roundBytes())
	if sn.StreamRoundsRecorded != held || sn.StreamBytes != held*roundBytes() || sn.GramBytes != tripleBytes() {
		t.Fatalf("recorded %d rounds in %d bytes and kept %d triple bytes, want each of %d rounds once and one triple",
			sn.StreamRoundsRecorded, sn.StreamBytes, sn.GramBytes, held)
	}
}

// history matches the reply fields that report the server's history
// rather than the fit: the model id, which counts its fits, and the
// dataset cache outcome.
var history = regexp.MustCompile(`"(model_id|dataset_cache_hit)": [^,\n]*`)

// TestResidentTriplePure: a reply is a pure function of (dataset,
// request, procs), never of the state of the dataset's triple. One
// cold request is the second fit on three servers: one where a fit at
// another lambda kept the triple (cached), one where this fit fills and
// keeps it (fresh), and one where a long fit on another world size
// starved the budget, so this fit fills a triple it cannot keep. The
// three replies are byte-equal apart from the work fields. Two first
// fits racing on a fresh dataset keep exactly one triple and answer
// alike, and like the other three apart from the history fields.
func TestResidentTriplePure(t *testing.T) {
	req := coldReq(0.2)
	second := func(first *serve.FitRequest) ([]byte, serve.StatsSnapshot) {
		_, ts := newTestServer(t, fastConfig())
		doFit(t, ts.Client(), ts.URL, first)
		raw := fitRaw(t, ts.Client(), ts.URL, req)
		return workFields.ReplaceAll(raw, nil), getStats(t, ts.Client(), ts.URL)
	}
	elsewhere := func(maxIter int) *serve.FitRequest {
		r := coldReq(0.3)
		r.Procs, r.MaxIter, r.GradMapTol = 1, maxIter, -1
		return r
	}
	cached, snC := second(coldReq(0.3))
	fresh, snF := second(elsewhere(10))
	starved, snS := second(elsewhere(int(2 * smallBytes(t) / roundBytes())))
	for _, c := range []struct {
		name         string
		sn           serve.StatsSnapshot
		fills, kept  int64
		replayedSome bool
	}{
		{"cached", snC, 1, 1, true},
		{"fresh", snF, 2, 2, false},
		{"starved", snS, 2, 1, false},
	} {
		if c.sn.GramFills != c.fills || c.sn.GramBytes != c.kept*tripleBytes() || (c.sn.StreamRoundsReplayed > 0) != c.replayedSome {
			t.Fatalf("%s: %d fills, %d triple bytes, %d rounds replayed; want %d fills and %d triples kept",
				c.name, c.sn.GramFills, c.sn.GramBytes, c.sn.StreamRoundsReplayed, c.fills, c.kept)
		}
	}
	if string(cached) != string(fresh) || string(fresh) != string(starved) {
		t.Fatalf("replies differ:\ncached %s\nfresh %s\nstarved %s", cached, fresh, starved)
	}

	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	body, _ := json.Marshal(req)
	raced := make([][]byte, 2)
	errs := make(chan error, len(raced))
	var wg sync.WaitGroup
	for i := range raced {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/fit", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("racer %d: status %d, %v: %s", i, resp.StatusCode, err, buf.Bytes())
				return
			}
			raced[i] = history.ReplaceAll(workFields.ReplaceAll(buf.Bytes(), nil), nil)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := history.ReplaceAll(cached, nil); string(raced[0]) != string(raced[1]) || string(raced[0]) != string(want) {
		t.Fatalf("racing first fits answered\n%s\nand\n%s\nwant\n%s", raced[0], raced[1], want)
	}
	sn := getStats(t, client, ts.URL)
	if sn.GramBytes != tripleBytes() || sn.GramFills < 1 || sn.GramFills > 2 || sn.StreamBytes != sn.StreamRoundsRecorded*roundBytes() {
		t.Fatalf("racing first fits: %d fills, %d triple bytes, %d stream bytes for %d rounds; want one triple kept",
			sn.GramFills, sn.GramBytes, sn.StreamBytes, sn.StreamRoundsRecorded)
	}
}
