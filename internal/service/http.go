package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's control API. Endpoints (all under /v1, all
// JSON; the full reference with curl examples is docs/API.md):
//
//	POST /v1/jobs              submit a JobSpec; returns the job Status
//	GET  /v1/jobs              list known jobs in submission order
//	GET  /v1/jobs/{id}         one job's Status
//	GET  /v1/jobs/{id}/results NDJSON result stream (tails live jobs)
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	GET  /v1/stats             operational counters
//	GET  /v1/healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSpecBytes caps a submitted job spec's body. A real spec is a few
// hundred bytes; the cap keeps one request from making the daemon buffer
// an arbitrarily large body.
const maxSpecBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", maxSpecBytes)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		// Explicit degraded mode, not an opaque failure: the daemon is
		// shutting down; another instance (or a retry after restart) will
		// take the job. Retry-After makes the backoff hint explicit.
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrBusy):
		// Queue-full is a load-shedding degraded mode: the submission is
		// safe to retry (deterministic IDs dedupe), so say when.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
	default:
		code := http.StatusAccepted
		if st.Cached {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	// ?from=N resumes a dropped stream: the first N complete NDJSON lines
	// are skipped and exactly the missing suffix flows. N is the line
	// count the client already holds (equivalently: the next replica
	// index, since replica lines precede the single terminal line).
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad from offset %q", q)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	// A mid-stream failure (client gone) just ends the copy; the status
	// line is already out.
	_ = s.StreamFrom(id, from, w, flush)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "build": s.cfg.Build})
}
