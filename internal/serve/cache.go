package serve

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// dataset is one prepared problem: the loaded instance, its
// lambda_max, the step size of its least-squares fits, and their
// triple, one solver.Resident per world size. Preparing the first three
// is the expensive part of a fit against fresh data — the step size
// runs power iterations over the Gram spectrum — and the kept triple
// spares a repeat fit its Gram fill, so the dataset cache is what makes
// repeat traffic cheap. First fits racing on a dataset may each fill
// the triple; one is kept.
type dataset struct {
	key       string
	prob      *data.Problem
	lambdaMax float64

	// gamma is the least-squares step size, 0 until stepOnce sets it.
	stepOnce sync.Once
	gamma    float64

	mu        sync.Mutex
	residents map[int]*solver.Resident // by procs
	// budget caps the residents together at the bytes of X and y.
	budget *solver.ResidentBudget
}

// resident returns the dataset's triple holder on procs ranks, created
// empty on first use. Which fits may read or fill it is the solver's
// decision.
func (ds *dataset) resident(procs int) *solver.Resident {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	r, ok := ds.residents[procs]
	if !ok {
		r = solver.NewResident(ds.budget)
		ds.residents[procs] = r
	}
	return r
}

// residentBytes reports the bytes the dataset's kept triples hold.
func (ds *dataset) residentBytes() int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var n int64
	for _, r := range ds.residents {
		n += r.Bytes()
	}
	return n
}

// step returns the step size of the dataset's least-squares fits: the
// stable step of the sampled Lipschitz estimate at the solver's default
// rate (8 power iterations, seed 777), the serving analogue of expt's
// per-instance gamma cache. It is estimated once, on the first call;
// concurrent first callers wait for that estimate, and nothing else on
// the dataset does.
func (ds *dataset) step() float64 {
	ds.stepOnce.Do(func() {
		ds.gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(ds.prob.X, ds.prob.Y, solver.Defaults().B, 8, 777))
	})
	return ds.gamma
}

// newDataset wraps a loaded problem with its derived quantities.
func newDataset(key string, p *data.Problem) *dataset {
	// lambda_max = ||X y / m||_inf: the smallest penalty with an
	// all-zero solution, the anchor for LambdaRatio requests.
	g0 := make([]float64, p.X.Rows)
	p.X.MulVec(g0, p.Y, nil)
	var lmax float64
	for _, v := range g0 {
		if math.Abs(v) > lmax {
			lmax = math.Abs(v)
		}
	}
	lmax /= float64(p.X.Cols)
	return &dataset{key: key, prob: p, lambdaMax: lmax,
		residents: map[int]*solver.Resident{},
		budget:    solver.NewResidentBudget(solver.DataBytes(p.X, p.Y))}
}

// datasetCache is a keyed LRU of prepared datasets. Evicting a dataset
// drops its resident state with it.
type datasetCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *dataset
	byKey map[string]*list.Element
	stats *Stats
}

func newDatasetCache(cap int, stats *Stats) *datasetCache {
	return &datasetCache{cap: cap, order: list.New(), byKey: map[string]*list.Element{}, stats: stats}
}

// get returns the cached dataset for key, loading it with load on a
// miss. The load runs outside the lock so a slow generation does not
// block hits on other keys; two concurrent first requests for the same
// key may both load (both count as misses), but the first insert wins
// and the loser adopts it, so every caller shares one *dataset — one
// step size and one resident state per world size.
func (c *datasetCache) get(key string, load func() (*data.Problem, error)) (*dataset, bool, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.stats.datasetHits.Add(1)
		return el.Value.(*dataset), true, nil
	}
	c.mu.Unlock()
	c.stats.datasetMisses.Add(1)
	p, err := load()
	if err != nil {
		return nil, false, err
	}
	ds := newDataset(key, p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Lost the race; adopt the winner so every caller shares one
		// step size.
		c.order.MoveToFront(el)
		return el.Value.(*dataset), false, nil
	}
	c.byKey[key] = c.order.PushFront(ds)
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*dataset).key)
		c.stats.datasetEvictions.Add(1)
	}
	return ds, false, nil
}

// residentBytes reports the bytes the resident datasets' kept triples
// hold.
func (c *datasetCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		n += el.Value.(*dataset).residentBytes()
	}
	return n
}

// inlineKey derives a stable cache key for inline LIBSVM payloads:
// FNV-1a over the content plus the declared dimension.
func inlineKey(libsvm string, features int) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(libsvm))
	return fmt.Sprintf("inline/%d/%016x", features, h.Sum64())
}

// fingerprint identifies the warm-start family of proximal newton fits
// (loss other than ls): same dataset, sampling rate, seed and scenario
// (regularizer family and loss, as canonical scenario tags — a huber
// fit must never warm-start a quantile fit, their optima differ). Procs
// is deliberately absent — the iterates are invariant to the world size
// (shared sample streams), so a solution computed at P=1 warm-starts a
// P=8 fit. (Not bit for bit: the allreduced sums group by partition, so
// a certified hit, which skips the solve, also needs the entry's P —
// see pathEntry.certifies.) The primary penalty lambda is also absent:
// the path cache indexes it separately, that is the whole point of
// warm starts.
func fingerprint(datasetKey string, b float64, seed uint64, regTag, lossTag string) string {
	return fmt.Sprintf("%s|pn|b%g|seed%d|reg:%s|loss:%s", datasetKey, b, seed, regTag, lossTag)
}

// tripleFingerprint identifies the warm-start family of least-squares
// fits, which are answered from the triple: the dataset and the
// regularizer. Those fits read no sampling parameter or seed.
func tripleFingerprint(datasetKey, regTag string) string {
	return fmt.Sprintf("%s|triple|reg:%s", datasetKey, regTag)
}

// pathEntry is one cached point of a regularization path. Entries are
// immutable once published: a hit may hand w to a model without a copy.
type pathEntry struct {
	lambda    float64
	bucket    int
	w         []float64
	objective float64
	nnz       int
	// gradMap is the publishing solve's gradient-mapping norm at w
	// (solver.Result.GradMap, NaN when it measured none) and procs the
	// world size it was measured on.
	gradMap float64
	procs   int
}

// certifies reports whether the entry answers a fit at lambda, to
// tolerance tol, on procs ranks without a solve: the zero-round solve
// warm-started at w would compute this very norm — same fingerprint,
// same lambda bits, same partition — and return w and objective
// unchanged. A NaN norm certifies nothing.
func (e *pathEntry) certifies(lambda, tol float64, procs int) bool {
	return e.lambda == lambda && tol > 0 && e.gradMap <= tol && e.procs == procs
}

// pathBucketsPerDecade quantizes lambda for cache keying: entries
// whose lambdas fall in the same bucket (within ~15% of each other)
// replace one another instead of accumulating.
const pathBucketsPerDecade = 16

func lambdaBucket(lambda float64) int {
	return int(math.Round(math.Log10(lambda) * pathBucketsPerDecade))
}

// pathCache stores solved regularization-path points per fingerprint,
// each path LRU-capped. Lookup returns the entry whose lambda is
// nearest in log space within one decade — along a lambda sweep that
// is the immediately preceding path point, whose support and iterate
// make the next solve nearly free.
type pathCache struct {
	mu    sync.Mutex
	cap   int
	paths map[string][]*pathEntry // sorted by lambda ascending
	stats *Stats
}

func newPathCache(cap int, stats *Stats) *pathCache {
	return &pathCache{cap: cap, paths: map[string][]*pathEntry{}, stats: stats}
}

// maxWarmLogDist bounds how far (in natural-log lambda space) a warm
// start may come from: one decade.
var maxWarmLogDist = math.Ln10

// lookup returns the nearest cached path point to lambda, or nil.
func (c *pathCache) lookup(fp string, lambda float64) *pathEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.paths[fp]
	var best *pathEntry
	bestDist := maxWarmLogDist
	target := math.Log(lambda)
	for _, e := range entries {
		d := math.Abs(math.Log(e.lambda) - target)
		if d <= bestDist {
			best, bestDist = e, d
		}
	}
	if best == nil {
		c.stats.pathMisses.Add(1)
		return nil
	}
	c.stats.pathHits.Add(1)
	return best
}

// put publishes a solved path point, replacing any entry in the same
// lambda bucket and evicting the farthest-from-new entry beyond cap
// (sweeps march monotonically, so distance is staleness).
func (c *pathCache) put(fp string, e *pathEntry) {
	e.bucket = lambdaBucket(e.lambda)
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.paths[fp]
	for i, old := range entries {
		if old.bucket == e.bucket {
			entries[i] = e
			c.paths[fp] = entries
			return
		}
	}
	entries = append(entries, e)
	sort.Slice(entries, func(i, j int) bool { return entries[i].lambda < entries[j].lambda })
	if len(entries) > c.cap {
		target := math.Log(e.lambda)
		worst, worstDist := -1, -1.0
		for i, old := range entries {
			if d := math.Abs(math.Log(old.lambda) - target); d > worstDist {
				worst, worstDist = i, d
			}
		}
		entries = append(entries[:worst], entries[worst+1:]...)
		c.stats.pathEvictions.Add(1)
	}
	c.paths[fp] = entries
}

// modelStore keeps fitted models addressable by id for POST /predict.
type modelStore struct {
	mu    sync.Mutex
	cap   int
	next  int
	order *list.List // values are string ids
	byID  map[string]*storedModel
}

type storedModel struct {
	model *solver.Model
	el    *list.Element
}

func newModelStore(cap int) *modelStore {
	return &modelStore{cap: cap, order: list.New(), byID: map[string]*storedModel{}}
}

// add stores a model and returns its fresh id.
func (s *modelStore) add(m *solver.Model) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("m%08d", s.next)
	sm := &storedModel{model: m}
	sm.el = s.order.PushFront(id)
	s.byID[id] = sm
	for s.order.Len() > s.cap {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.byID, last.Value.(string))
	}
	return id
}

// get returns the model for id, or nil.
func (s *modelStore) get(id string) *solver.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.byID[id]
	if !ok {
		return nil
	}
	s.order.MoveToFront(sm.el)
	return sm.model
}
