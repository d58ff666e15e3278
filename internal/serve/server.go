package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

// Server is the LASSO-as-a-service front end. Create with New, mount
// Handler on an http.Server (or httptest.Server), and Close when done.
type Server struct {
	cfg      Config
	stats    Stats
	pool     *pool
	datasets *datasetCache
	paths    *pathCache
	models   *modelStore
}

// New builds a server from cfg (zero fields take defaults; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.pool = newPool(cfg.Workers, cfg.QueueCap, &s.stats)
	s.datasets = newDatasetCache(cfg.DatasetCap, &s.stats)
	s.stats.tripleBytes = s.datasets.tripleBytes
	s.paths = newPathCache(cfg.PathCap, &s.stats)
	s.models = newModelStore(cfg.ModelCap)
	return s
}

// Close drains the worker pool. Call after the HTTP listener has
// stopped accepting requests; submissions racing Close are not safe.
func (s *Server) Close() { s.pool.Close() }

// Stats exposes the live counters (the /stats endpoint serves a
// snapshot of the same).
func (s *Server) Stats() *Stats { return &s.stats }

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fit", s.handleFit)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	status := 500
	if errors.As(err, &he) {
		status = he.status
	}
	if status >= 400 && status < 500 && status != 429 {
		s.stats.badRequests.Add(1)
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody parses a JSON request body strictly (unknown fields are
// rejected so typos in option names fail loudly instead of silently
// running defaults).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decode request: %v", err)
	}
	return nil
}

// handleFit is POST /fit: admission-controlled, deadline-bounded.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req FitRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	// The deadline clock starts at admission, not at worker pickup:
	// queue wait burns request budget, which is what bounds total
	// latency under load.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	type outcome struct {
		resp *FitResponse
		err  error
	}
	done := make(chan outcome, 1)
	admitted := s.pool.TrySubmit(func() {
		s.stats.activeFits.Add(1)
		defer s.stats.activeFits.Add(-1)
		resp, err := s.runFit(ctx, &req)
		done <- outcome{resp, err}
	})
	if !admitted {
		s.stats.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests,
			errorResponse{Error: "fit queue full: try again later"})
		return
	}
	out := <-done
	if out.err != nil {
		s.writeError(w, out.err)
		return
	}
	s.stats.fits.Add(1)
	writeJSON(w, http.StatusOK, out.resp)
}

// handlePredict is POST /predict. Predictions are cheap (one sparse
// mat-vec), so they bypass the solve queue.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req PredictRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.runPredict(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.stats.predicts.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.Snapshot())
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
