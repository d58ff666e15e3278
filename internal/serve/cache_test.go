package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
)

// TestDatasetCacheLRU: hits refresh recency, overflow evicts the
// least-recently-used instance, and the counters record all of it.
func TestDatasetCacheLRU(t *testing.T) {
	var stats Stats
	c := newDatasetCache(2, &stats)
	load := func(seed uint64) func() (*data.Problem, error) {
		return func() (*data.Problem, error) {
			return data.LoadWith("abalone", 60, 8, seed)
		}
	}

	if _, hit, err := c.get("a", load(1)); err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.get("b", load(2)); err != nil || hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.get("a", load(1)); err != nil || !hit {
		t.Fatalf("repeat get: hit=%v err=%v", hit, err)
	}
	// "b" is now LRU; inserting "c" must evict it.
	if _, _, err := c.get("c", load(3)); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.get("b", load(2)); hit {
		t.Fatal("evicted dataset still resident")
	}
	sn := stats.Snapshot()
	if sn.DatasetHits != 1 || sn.DatasetMisses != 4 || sn.DatasetEvictions != 2 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d, want 1/4/2",
			sn.DatasetHits, sn.DatasetMisses, sn.DatasetEvictions)
	}
}

// TestDatasetCacheLoadError: a failing loader must not poison the cache.
func TestDatasetCacheLoadError(t *testing.T) {
	var stats Stats
	c := newDatasetCache(2, &stats)
	boom := fmt.Errorf("boom")
	if _, _, err := c.get("x", func() (*data.Problem, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, hit, err := c.get("x", func() (*data.Problem, error) {
		return data.LoadWith("abalone", 60, 8, 1)
	}); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestDatasetCacheConcurrentFirstGet: concurrent first requests for one
// key all load — each waits in its loader until every one has entered —
// yet all end on the first inserted *dataset, so they share one gamma
// cache and one set of batch streams.
func TestDatasetCacheConcurrentFirstGet(t *testing.T) {
	var stats Stats
	c := newDatasetCache(2, &stats)
	const n = 4
	var entered sync.WaitGroup
	entered.Add(n)
	load := func() (*data.Problem, error) {
		entered.Done()
		entered.Wait()
		return data.LoadWith("abalone", 60, 8, 1)
	}
	got := make([]*dataset, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, _, err := c.get("k", load)
			if err != nil {
				t.Error(err)
			}
			got[i] = ds
		}(i)
	}
	wg.Wait()
	again, hit, _ := c.get("k", load)
	for i, ds := range got {
		if ds != again {
			t.Fatalf("caller %d holds another *dataset than the cache", i)
		}
	}
	if !hit || stats.Snapshot().DatasetMisses != n {
		t.Fatalf("hit %t, %d misses, want a hit after %d misses", hit, stats.Snapshot().DatasetMisses, n)
	}
}

// TestDatasetResidentPerProcs: one resident state per procs, shared by
// every lookup of that world size and by no other, all on the
// dataset's one budget of its X and y bytes. Which stream of it a fit
// replays is the solver's key (TestReplayIdentity, TestStreamKeys).
func TestDatasetResidentPerProcs(t *testing.T) {
	p, err := data.LoadWith("abalone", 60, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := newDataset("k", p)
	r := ds.resident(2)
	if ds.resident(2) != r || ds.resident(1) == r {
		t.Fatal("want one resident state per procs")
	}
	if ds.budget.Used() != 0 || len(ds.residents) != 2 {
		t.Fatalf("%d residents holding %d bytes", len(ds.residents), ds.budget.Used())
	}
}

// TestResidentBytesAttributed: after a cold grid on two world sizes at
// b = 0.1 (world fits), whose triples draw on the dataset's one budget,
// /stats reports as gram bytes exactly one triple per world size, and
// they are everything the budget holds.
func TestResidentBytesAttributed(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1, Procs: 2, MaxIter: 4000})
	defer s.Close()
	off := false
	ref := &DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}
	for _, procs := range []int{1, 2} {
		for _, ratio := range []float64{0.4, 0.3, 0.2} {
			req := &FitRequest{Dataset: ref, LambdaRatio: ratio, Warm: &off, Procs: procs, B: 0.1}
			if _, err := s.runFit(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	sn := s.stats.Snapshot()
	d := int64(ref.Features)
	triple := 8 * (d*(d+1)/2 + d + 1)
	ds := s.datasets.order.Front().Value.(*dataset)
	if sn.GramBytes != 2*triple || sn.GramFills != 2 || sn.GramBytes != ds.budget.Used() {
		t.Fatalf("%d triple bytes from %d fills, budget holds %d; want two %d-byte triples", sn.GramBytes, sn.GramFills, ds.budget.Used(), triple)
	}
}

// TestGammaForConcurrent: fits at two sampling rates estimate their
// step sizes at once while others look up the resident state (run it
// under -race). Each rate's step is the estimate a lone call makes,
// and every caller of a rate gets the one cached value.
func TestGammaForConcurrent(t *testing.T) {
	p, err := data.LoadWith("abalone", 400, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.1, 0.25}
	want := map[float64]float64{}
	for _, b := range rates {
		want[b] = newDataset("ref", p).gammaFor(b)
	}
	ds := newDataset("k", p)
	const callers = 4
	got := make([]float64, callers*len(rates))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got[i] = ds.gammaFor(rates[i%len(rates)])
		}(i)
		go func(i int) {
			defer wg.Done()
			ds.resident(1 + i%2)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if b := rates[i%len(rates)]; g != want[b] {
			t.Fatalf("caller %d: gamma(%g) = %.17g, a lone estimate gives %.17g", i, b, g, want[b])
		}
	}
	if len(ds.gammaB) != len(rates) {
		t.Fatalf("%d cached steps for %d rates", len(ds.gammaB), len(rates))
	}
}

// TestPathCacheNearestLookup: lookup returns the log-nearest entry,
// refuses matches beyond one decade, and put replaces same-bucket
// entries instead of accumulating near-duplicates.
func TestPathCacheNearestLookup(t *testing.T) {
	var stats Stats
	c := newPathCache(8, &stats)
	fp := "ds|rcsfista|b0.1|k1|s1|asfalse|seed42"

	if e := c.lookup(fp, 0.1); e != nil {
		t.Fatal("empty cache returned an entry")
	}
	c.put(fp, &pathEntry{lambda: 0.1, w: []float64{1}})
	c.put(fp, &pathEntry{lambda: 0.05, w: []float64{2}})

	if e := c.lookup(fp, 0.06); e == nil || e.lambda != 0.05 {
		t.Fatalf("lookup(0.06) = %+v, want the 0.05 entry", e)
	}
	if e := c.lookup(fp, 0.2); e == nil || e.lambda != 0.1 {
		t.Fatalf("lookup(0.2) = %+v, want the 0.1 entry", e)
	}
	// More than a decade away from everything: no warm start.
	if e := c.lookup(fp, 1e-4); e != nil {
		t.Fatalf("lookup(1e-4) = %+v, want nil (beyond one decade)", e)
	}
	// Unknown fingerprint sees nothing.
	if e := c.lookup("other", 0.1); e != nil {
		t.Fatal("fingerprint isolation violated")
	}

	// Same bucket (within ~15%) replaces rather than appends.
	c.put(fp, &pathEntry{lambda: 0.102, w: []float64{3}})
	if n := len(c.paths[fp]); n != 2 {
		t.Fatalf("same-bucket put grew the path to %d entries", n)
	}
	if e := c.lookup(fp, 0.1); e == nil || e.w[0] != 3 {
		t.Fatalf("same-bucket put did not replace: %+v", e)
	}

	sn := stats.Snapshot()
	if sn.PathHits != 3 || sn.PathMisses != 3 {
		t.Fatalf("path counters hits=%d misses=%d, want 3/3", sn.PathHits, sn.PathMisses)
	}
}

// TestPathCacheEviction: beyond cap the entry farthest (in log-lambda)
// from the newest point is dropped — sweeps march monotonically, so
// distance is staleness.
func TestPathCacheEviction(t *testing.T) {
	var stats Stats
	c := newPathCache(3, &stats)
	fp := "fp"
	for _, lam := range []float64{0.5, 0.3, 0.18, 0.11} {
		c.put(fp, &pathEntry{lambda: lam})
	}
	if n := len(c.paths[fp]); n != 3 {
		t.Fatalf("path holds %d entries, cap 3", n)
	}
	// 0.5 is farthest from the newest point 0.11.
	for _, e := range c.paths[fp] {
		if e.lambda == 0.5 {
			t.Fatal("farthest entry survived eviction")
		}
	}
	if sn := stats.Snapshot(); sn.PathEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", sn.PathEvictions)
	}
}

// TestFingerprintSeparatesFamilies pins what may and may not share
// warm starts: sampling setup separates, world size does not.
func TestFingerprintSeparatesFamilies(t *testing.T) {
	base := fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 42, "l1", "ls", "")
	same := fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 42, "l1", "ls", "")
	if base != same {
		t.Fatal("fingerprint not deterministic")
	}
	for name, other := range map[string]string{
		"dataset":   fingerprint("ds2", "rcsfista", 0.1, 1, 1, false, 42, "l1", "ls", ""),
		"solver":    fingerprint("ds", "fista", 0.1, 1, 1, false, 42, "l1", "ls", ""),
		"b":         fingerprint("ds", "rcsfista", 0.2, 1, 1, false, 42, "l1", "ls", ""),
		"k":         fingerprint("ds", "rcsfista", 0.1, 2, 1, false, 42, "l1", "ls", ""),
		"s":         fingerprint("ds", "rcsfista", 0.1, 1, 2, false, 42, "l1", "ls", ""),
		"activeset": fingerprint("ds", "rcsfista", 0.1, 1, 1, true, 42, "l1", "ls", ""),
		"seed":      fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 43, "l1", "ls", ""),
		"reg":       fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 42, "en:l2=0.01", "ls", ""),
		"loss":      fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 42, "l1", "huber:d=1", ""),
		"tier":      fingerprint("ds", "rcsfista", 0.1, 1, 1, false, 42, "l1", "ls", "i8"),
	} {
		if other == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}

// TestModelStoreEviction: the store is a bounded LRU keyed by fresh ids.
func TestModelStoreEviction(t *testing.T) {
	s := newModelStore(2)
	id1 := s.add(nil)
	id2 := s.add(nil)
	s.get(id1) // refresh id1 so id2 becomes LRU
	id3 := s.add(nil)
	if id1 == id2 || id2 == id3 {
		t.Fatal("ids not unique")
	}
	if _, ok := s.byID[id2]; ok {
		t.Fatal("LRU model survived eviction")
	}
	if _, ok := s.byID[id1]; !ok {
		t.Fatal("recently used model evicted")
	}
}
