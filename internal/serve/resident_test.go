package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/serve"
)

// coldReq is a warm=false fit of smallRef at ratio, answered from the
// dataset's triple.
func coldReq(ratio float64) *serve.FitRequest {
	off := false
	return &serve.FitRequest{Dataset: smallRef(), LambdaRatio: ratio, Warm: &off, ReturnW: true}
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
var workFields = regexp.MustCompile(`"(elapsed_ms|model_seconds)": [^,\n]*`)

// tripleBytes is the size of a kept least-squares triple of a
// d-feature dataset: the packed G, r and c.
func tripleBytes(d int) int64 { return 8 * int64(mat.PackedLen(d)+d+1) }

// TestRepeatedWorldFitIsTheColdOne: a warm=false world fit — a loss
// other than ls, on proximal Newton — repeated on one server replies as
// the same fit on a fresh server, byte for byte apart from the work it
// did and the server's history (coldGridFields). World fits neither
// fill nor keep a triple.
func TestRepeatedWorldFitIsTheColdOne(t *testing.T) {
	req := coldReq(0.2)
	req.Loss, req.MaxIter = "huber", 200
	_, ts := newTestServer(t, fastConfig())
	client := ts.Client()
	doFit(t, client, ts.URL, req)
	repeated := fitRaw(t, client, ts.URL, req)
	_, ctl := newTestServer(t, fastConfig())
	fresh := fitRaw(t, ctl.Client(), ctl.URL, req)

	var r serve.FitResponse
	if json.Unmarshal(repeated, &r) != nil {
		t.Fatal("undecodable reply")
	}
	if r.AnsweredBy != "world" || r.Rounds == 0 || r.Warm {
		t.Fatalf("the repeat was not a cold world fit: %s", repeated)
	}
	if a, b := coldGridFields.ReplaceAll(repeated, nil), coldGridFields.ReplaceAll(fresh, nil); string(a) != string(b) {
		t.Fatalf("replies differ:\n%s\nvs\n%s", a, b)
	}
	if sn := getStats(t, client, ts.URL); sn.GramFills != 0 || sn.GramBytes != 0 {
		t.Fatalf("two world fits: %d fills, %d triple bytes; want none", sn.GramFills, sn.GramBytes)
	}
}

// TestTripleLeavesWithTheDataset: evicting a dataset frees its
// gram_bytes, and the next fit on it fills the triple afresh.
func TestTripleLeavesWithTheDataset(t *testing.T) {
	cfg := fastConfig()
	cfg.DatasetCap = 1
	_, ts := newTestServer(t, cfg)
	client := ts.Client()
	req := coldReq(0.3)
	req.MaxIter, req.GradMapTol = 20, -1
	doFit(t, client, ts.URL, req)
	d := smallRef().Features
	if sn := getStats(t, client, ts.URL); sn.GramBytes != tripleBytes(d) || sn.GramFills != 1 {
		t.Fatalf("%d triple bytes from %d fills, want one %d-byte triple", sn.GramBytes, sn.GramFills, tripleBytes(d))
	}
	other := coldReq(0.3)
	other.Dataset = &serve.DatasetRef{Name: "abalone", Samples: 100, Features: 6, Seed: 8}
	other.MaxIter, other.GradMapTol = 10, -1
	doFit(t, client, ts.URL, other)
	if sn := getStats(t, client, ts.URL); sn.DatasetEvictions != 1 || sn.GramBytes != tripleBytes(6) {
		t.Fatalf("after eviction: %d evictions, %d triple bytes, want 1 and %d", sn.DatasetEvictions, sn.GramBytes, tripleBytes(6))
	}
	if got := doFit(t, client, ts.URL, req); got.DatasetCacheHit {
		t.Fatal("a fit on the evicted dataset hit the dataset cache")
	}
	if sn := getStats(t, client, ts.URL); sn.GramFills != 3 || sn.GramBytes != tripleBytes(d) {
		t.Fatalf("after the reload: %d fills, %d triple bytes, want 3 and %d", sn.GramFills, sn.GramBytes, tripleBytes(d))
	}
}

// TestResidentGridConcurrent: two workers fit one lambda grid from the
// triple at once, in opposite orders, racing to fill and read it (the
// CI serving job runs it under -race). Every reply equals the triple
// solve on a fill of its own bit for bit, and one triple is kept.
func TestResidentGridConcurrent(t *testing.T) {
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
	for ratio, rs := range replies {
		p, o := serverOpts(t, rs[0].Lambda, cfg.MaxIter)
		want := soloTriple(t, p, cfg.Procs, o)
		for _, r := range rs {
			if r.AnsweredBy != "triple" || r.Iters != want.Iters || !sameBits(r.W, want.W) ||
				!sameBits([]float64{r.Objective}, []float64{want.FinalObj}) {
				t.Fatalf("ratio %g: answered by %s, %d iters, objective %.17g; own fill %d iters, %.17g (or w differs)",
					ratio, r.AnsweredBy, r.Iters, r.Objective, want.Iters, want.FinalObj)
			}
		}
	}
	if sn := getStats(t, client, ts.URL); sn.GramBytes != tripleBytes(smallRef().Features) || sn.GramFills < 1 || sn.GramFills > 2 {
		t.Fatalf("%d fills, %d triple bytes; want one triple kept", sn.GramFills, sn.GramBytes)
	}
}

// history matches the reply fields that report the server's history
// rather than the fit: the model id, which counts its fits, and the
// dataset cache outcome.
var history = regexp.MustCompile(`"(model_id|dataset_cache_hit)": [^,\n]*`)

// TestResidentTriplePure: a reply is a pure function of (dataset,
// request, procs), never of the state of the dataset's triple. One
// cold request is the second fit on two servers: one where a fit at
// another lambda kept the triple (cached), and one where a fit on
// another world size kept its own, so this fit fills and keeps a second
// (fresh). The two replies are byte-equal apart from the work fields.
// Two first fits racing on a fresh dataset keep exactly one triple and
// answer alike, and like the other two apart from the history fields.
func TestResidentTriplePure(t *testing.T) {
	req := coldReq(0.2)
	second := func(first *serve.FitRequest) ([]byte, serve.StatsSnapshot) {
		_, ts := newTestServer(t, fastConfig())
		doFit(t, ts.Client(), ts.URL, first)
		raw := fitRaw(t, ts.Client(), ts.URL, req)
		return workFields.ReplaceAll(raw, nil), getStats(t, ts.Client(), ts.URL)
	}
	elsewhere := coldReq(0.3)
	elsewhere.Procs, elsewhere.MaxIter, elsewhere.GradMapTol = 1, 10, -1
	cached, snC := second(coldReq(0.3))
	fresh, snF := second(elsewhere)
	triple := tripleBytes(smallRef().Features)
	for _, c := range []struct {
		name        string
		sn          serve.StatsSnapshot
		fills, kept int64
	}{
		{"cached", snC, 1, 1},
		{"fresh", snF, 2, 2},
	} {
		if c.sn.GramFills != c.fills || c.sn.GramBytes != c.kept*triple {
			t.Fatalf("%s: %d fills, %d triple bytes; want %d fills and %d triples kept",
				c.name, c.sn.GramFills, c.sn.GramBytes, c.fills, c.kept)
		}
	}
	if string(cached) != string(fresh) {
		t.Fatalf("replies differ:\ncached %s\nfresh %s", cached, fresh)
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
	if sn := getStats(t, client, ts.URL); sn.GramBytes != triple || sn.GramFills < 1 || sn.GramFills > 2 {
		t.Fatalf("racing first fits: %d fills, %d triple bytes; want one triple kept", sn.GramFills, sn.GramBytes)
	}
}
