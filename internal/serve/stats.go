package serve

import "sync/atomic"

// Stats holds the service counters. All fields are updated atomically
// by the handlers, the worker pool and the caches; Snapshot reads a
// consistent-enough view for the /stats endpoint (individual counters
// are exact, cross-counter ratios are approximate under load, which is
// all a monitoring endpoint promises).
type Stats struct {
	fits        atomic.Int64
	predicts    atomic.Int64
	rejected    atomic.Int64
	badRequests atomic.Int64
	deadlines   atomic.Int64
	failures    atomic.Int64
	activeFits  atomic.Int64
	queuedFits  atomic.Int64

	datasetHits      atomic.Int64
	datasetMisses    atomic.Int64
	datasetEvictions atomic.Int64
	pathHits         atomic.Int64
	pathMisses       atomic.Int64
	pathEvictions    atomic.Int64

	warmFits      atomic.Int64
	coldFits      atomic.Int64
	warmIters     atomic.Int64
	coldIters     atomic.Int64
	partialFits   atomic.Int64
	certifiedHits atomic.Int64
	tripleFits    atomic.Int64

	gramFills atomic.Int64
	// tripleBytes reads the bytes the kept least-squares triples hold;
	// nil reads 0.
	tripleBytes func() int64
}

// StatsSnapshot is the JSON shape of GET /stats.
type StatsSnapshot struct {
	// Request outcomes.
	Fits        int64 `json:"fits"`
	Predicts    int64 `json:"predicts"`
	Rejected    int64 `json:"rejected"`
	BadRequests int64 `json:"bad_requests"`
	Deadlines   int64 `json:"deadlines"`
	Failures    int64 `json:"failures"`
	// ActiveFits counts solves running right now; QueuedFits counts
	// admitted jobs waiting for a worker.
	ActiveFits int64 `json:"active_fits"`
	QueuedFits int64 `json:"queued_fits"`

	// Dataset cache counters. An entry holds the problem, its step
	// sizes and its resident triple per world size.
	DatasetHits      int64 `json:"dataset_hits"`
	DatasetMisses    int64 `json:"dataset_misses"`
	DatasetEvictions int64 `json:"dataset_evictions"`
	// Lambda-path (warm-start) cache counters.
	PathHits      int64 `json:"path_hits"`
	PathMisses    int64 `json:"path_misses"`
	PathEvictions int64 `json:"path_evictions"`

	// Warm-start effectiveness: solver iterations (a triple fit runs no
	// round) of warm vs cold fits that ran a solve. A certified hit is a
	// warm fit that adds no iterations; a deadline-clipped fit's count
	// reflects the deadline, so partials count in neither bucket.
	WarmFits    int64 `json:"warm_fits"`
	ColdFits    int64 `json:"cold_fits"`
	WarmIters   int64 `json:"warm_iters"`
	ColdIters   int64 `json:"cold_iters"`
	PartialFits int64 `json:"partial_fits"`
	// CertifiedHits counts warm fits answered from the lambda-path cache
	// without a solve: an exact-lambda entry whose stored gradient-mapping
	// norm meets the request's tolerance on the same world size. Each is
	// also a warm fit with zero rounds.
	CertifiedHits int64 `json:"certified_hits"`
	// TripleFits counts fits answered from their dataset's triple with
	// no world (FitResponse.AnsweredBy "triple"), partial and
	// unconverged ones included. A certified hit is not one; a fit that
	// filled the triple is also one of GramFills.
	TripleFits int64 `json:"triple_fits"`
	// Resident Gram: the bytes the cached datasets' least-squares
	// triples hold now (at most one per dataset and world size, capped
	// per dataset at the bytes of its X and y), and the fits that filled
	// one. A steady grid fills once per (dataset, procs); first fits
	// racing on a dataset may each fill, and one triple is kept.
	GramBytes int64 `json:"gram_bytes"`
	GramFills int64 `json:"gram_fills"`
}

// Snapshot reads the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	var gramBytes int64
	if s.tripleBytes != nil {
		gramBytes = s.tripleBytes()
	}
	return StatsSnapshot{
		Fits:        s.fits.Load(),
		Predicts:    s.predicts.Load(),
		Rejected:    s.rejected.Load(),
		BadRequests: s.badRequests.Load(),
		Deadlines:   s.deadlines.Load(),
		Failures:    s.failures.Load(),
		ActiveFits:  s.activeFits.Load(),
		QueuedFits:  s.queuedFits.Load(),

		DatasetHits:      s.datasetHits.Load(),
		DatasetMisses:    s.datasetMisses.Load(),
		DatasetEvictions: s.datasetEvictions.Load(),
		PathHits:         s.pathHits.Load(),
		PathMisses:       s.pathMisses.Load(),
		PathEvictions:    s.pathEvictions.Load(),

		WarmFits:    s.warmFits.Load(),
		ColdFits:    s.coldFits.Load(),
		WarmIters:   s.warmIters.Load(),
		ColdIters:   s.coldIters.Load(),
		PartialFits: s.partialFits.Load(),

		CertifiedHits: s.certifiedHits.Load(),
		TripleFits:    s.tripleFits.Load(),

		GramBytes: gramBytes,
		GramFills: s.gramFills.Load(),
	}
}
