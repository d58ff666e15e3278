package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/solver"
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
// yet all end on the first inserted *dataset, so they share one kept
// triple per world size.
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

// TestDatasetResidentPerProcs: one kept triple per procs — the first
// lookup of a world size fills it, every later one reads it, another
// size fills its own — counted in the dataset's bytes. A dataset whose
// X and y take fewer bytes than a triple keeps none: every lookup fills.
func TestDatasetResidentPerProcs(t *testing.T) {
	p, err := data.LoadWith("abalone", 60, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := newDataset("k", p)
	tri, filled := ds.triple(2, nil)
	again, refilled := ds.triple(2, nil)
	other, otherFilled := ds.triple(1, nil)
	if !filled || refilled || again != tri || !otherFilled || other == tri {
		t.Fatal("want one kept triple per procs, filled by its first lookup")
	}
	if ds.tripleBytes() != tri.Bytes()+other.Bytes() || len(ds.triples) != 2 {
		t.Fatalf("%d triples holding %d bytes", len(ds.triples), ds.tripleBytes())
	}

	wide, err := data.LoadWith("mnist", 10, 392, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds = newDataset("wide", wide)
	for i := 0; i < 2; i++ {
		if tri, filled := ds.triple(2, nil); !filled || tri.Bytes() <= ds.dataBytes() {
			t.Fatalf("lookup %d on a dataset of %d bytes read a kept %d-byte triple", i, ds.dataBytes(), tri.Bytes())
		}
	}
	if ds.tripleBytes() != 0 || len(ds.triples) != 0 {
		t.Fatalf("a triple larger than its data was kept: %d bytes", ds.tripleBytes())
	}
}

// TestResidentBytesAttributed: after a cold grid on two world sizes,
// whose triples share the dataset's one cap, /stats reports as gram
// bytes exactly one triple per world size, and they are everything the
// dataset holds.
func TestResidentBytesAttributed(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1, Procs: 2, MaxIter: 4000})
	defer s.Close()
	off := false
	ref := &DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}
	for _, procs := range []int{1, 2} {
		for _, ratio := range []float64{0.4, 0.3, 0.2} {
			req := &FitRequest{Dataset: ref, LambdaRatio: ratio, Warm: &off, Procs: procs}
			if _, err := s.runFit(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	sn := s.stats.Snapshot()
	d := int64(ref.Features)
	triple := 8 * (d*(d+1)/2 + d + 1)
	ds := s.datasets.order.Front().Value.(*dataset)
	if sn.GramBytes != 2*triple || sn.GramFills != 2 || sn.GramBytes != ds.tripleBytes() {
		t.Fatalf("%d triple bytes from %d fills, dataset holds %d; want two %d-byte triples", sn.GramBytes, sn.GramFills, ds.tripleBytes(), triple)
	}
}

// TestDatasetTripleConcurrent: first lookups of a dataset's triples on
// two world sizes race (run it under -race). Every caller gets the step
// and size of a lone fill on its size (TestTripleRacingFirstSolves holds
// racing fills to the same bits), and one triple per size is kept.
func TestDatasetTripleConcurrent(t *testing.T) {
	p, err := data.LoadWith("abalone", 400, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	lone := map[int]*solver.Triple{1: solver.FillTriple(p.X, p.Y, 1, nil), 2: solver.FillTriple(p.X, p.Y, 2, nil)}
	ds := newDataset("k", p)
	got := make([]*solver.Triple, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = ds.triple(1+i%2, nil)
		}(i)
	}
	wg.Wait()
	for i, tri := range got {
		want := lone[1+i%2]
		if tri.Step() != want.Step() || tri.Bytes() != want.Bytes() {
			t.Fatalf("caller %d: step %.17g, %d bytes; a lone fill gives %.17g, %d", i, tri.Step(), tri.Bytes(), want.Step(), want.Bytes())
		}
	}
	if len(ds.triples) != 2 || ds.tripleBytes() != lone[1].Bytes()+lone[2].Bytes() {
		t.Fatalf("%d triples holding %d bytes; want one per size", len(ds.triples), ds.tripleBytes())
	}
}

// TestPNFitFillsNoTriple: a proximal newton fit reads no triple, so it
// fills none: after a huber fit on a fresh dataset it holds no triple,
// and the dataset's first least-squares fit fills one.
func TestPNFitFillsNoTriple(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1, Procs: 2})
	defer s.Close()
	ref := &DatasetRef{Name: "abalone", Samples: 200, Features: 8, Seed: 7}
	if _, err := s.runFit(context.Background(), &FitRequest{Dataset: ref, LambdaRatio: 0.2, Loss: "huber", MaxIter: 20}); err != nil {
		t.Fatal(err)
	}
	ds := s.datasets.order.Front().Value.(*dataset)
	if len(ds.triples) != 0 || s.stats.Snapshot().GramFills != 0 {
		t.Fatalf("a huber fit filled %d triples", len(ds.triples))
	}
	if _, err := s.runFit(context.Background(), &FitRequest{Dataset: ref, LambdaRatio: 0.2, MaxIter: 20}); err != nil {
		t.Fatal(err)
	}
	if len(ds.triples) != 1 || s.stats.Snapshot().GramFills != 1 {
		t.Fatalf("a least-squares fit left %d triples", len(ds.triples))
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
// warm starts: a proximal newton fit's sampling rate, seed and scenario
// separate, world size does not; least-squares fits are a family of
// their own per dataset and regularizer.
func TestFingerprintSeparatesFamilies(t *testing.T) {
	base := fingerprint("ds", 0.1, 42, "l1", "huber:d=1")
	if base != fingerprint("ds", 0.1, 42, "l1", "huber:d=1") {
		t.Fatal("fingerprint not deterministic")
	}
	for name, other := range map[string]string{
		"dataset": fingerprint("ds2", 0.1, 42, "l1", "huber:d=1"),
		"b":       fingerprint("ds", 0.2, 42, "l1", "huber:d=1"),
		"seed":    fingerprint("ds", 0.1, 43, "l1", "huber:d=1"),
		"reg":     fingerprint("ds", 0.1, 42, "en:l2=0.01", "huber:d=1"),
		"loss":    fingerprint("ds", 0.1, 42, "l1", "quantile:tau=0.5"),
		"triple":  tripleFingerprint("ds", "l1"),
	} {
		if other == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
	if tripleFingerprint("ds", "l1") == tripleFingerprint("ds", "en:l2=0.01") ||
		tripleFingerprint("ds", "l1") == tripleFingerprint("ds2", "l1") {
		t.Error("triple fingerprint ignores the regularizer or the dataset")
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
