package campsrv

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/campaignd"
	"repro/internal/fleet"
	"repro/internal/observatory"
	"repro/internal/telemetry"
)

// maxSubmissionBody bounds one POST /campaigns document; seed corpora in
// spec.config.corpus are the large case and stay far under this.
const maxSubmissionBody = 8 << 20

// maxResultBody bounds one submitted TrialResult document; guided-corpus
// trials are the large case and stay far under this.
const maxResultBody = 8 << 20

// HandlerConfig tunes Handler.
type HandlerConfig struct {
	// AuthToken, when non-empty, is the shared secret every request (except
	// /healthz) must present as "Authorization: Bearer <token>". This is
	// transport-level perimeter auth for a trusted network; mTLS with
	// per-client identities remains future work (DESIGN §12).
	AuthToken string
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Handler returns the campaign service API:
//
//	POST /campaigns                  submit {spec, priority, maxInflight};
//	                                 returns the campaign view with its ID
//	GET  /campaigns                  list every campaign
//	GET  /campaigns/{id}             one campaign's status
//	GET  /campaigns/{id}/report.json final report (byte-identical to the
//	                                 in-process fleet.Run report); 409
//	                                 until the campaign completes
//	GET  /campaigns/{id}/events      JSONL tail of the campaign's journal
//	POST /campaigns/{id}/cancel      withdraw a queued/running campaign
//	GET  /fleet.json                 fleet-wide aggregate of every
//	                                 campaign's progress snapshot
//
// plus the campaign-scoped worker protocol (the campaignd wire format with
// a campaign=ID query parameter):
//
//	GET  /campaignd/spec?campaign=ID
//	POST /campaignd/lease?worker=NAME          fair-share scheduled
//	POST /campaignd/heartbeat?campaign=ID&lease=N
//	POST /campaignd/result?campaign=ID&trial=N&lease=N&worker=NAME
//
// and, when a telemetry plane is configured, its routes (/metrics,
// /metrics.json, /healthz — the latter always answers without auth so
// liveness probes need no secret).
func (s *Server) Handler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var sub Submission
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmissionBody))
		// A field this server does not know would otherwise be dropped and
		// the campaign run without part of its definition.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sub); err != nil {
			http.Error(w, fmt.Sprintf("bad submission: %v", err), http.StatusBadRequest)
			return
		}
		v, err := s.Submit(sub)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrShutdown) {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, v)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Campaigns())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		d, err := s.Detail(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, d)
	})
	mux.HandleFunc("GET /campaigns/{id}/report.json", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.ReportJSON(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(rep)
	})
	mux.HandleFunc("GET /campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		c := s.campaigns[id]
		var sink *observatory.Sink
		if c != nil {
			sink = c.sink
		}
		s.mu.Unlock()
		if c == nil {
			http.Error(w, "no such campaign", http.StatusNotFound)
			return
		}
		observatory.ServeEventsTail(w, r, sink)
	})
	mux.HandleFunc("POST /campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("GET /fleet.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Fleet())
	})

	// Worker protocol: the campaignd wire format, campaign-scoped.
	mux.HandleFunc("GET /campaignd/spec", func(w http.ResponseWriter, r *http.Request) {
		spec, err := s.SpecJSON(r.URL.Query().Get("campaign"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(spec)
	})
	mux.HandleFunc("POST /campaignd/lease", func(w http.ResponseWriter, r *http.Request) {
		l := s.AcquireLease(r.URL.Query().Get("worker"))
		writeJSON(w, campaignd.WireLease(l))
	})
	mux.HandleFunc("POST /campaignd/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		leaseID, err := strconv.ParseUint(q.Get("lease"), 10, 64)
		if err != nil {
			http.Error(w, "bad lease id", http.StatusBadRequest)
			return
		}
		if err := s.Heartbeat(q.Get("campaign"), leaseID); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /campaignd/result", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		index, err := strconv.Atoi(q.Get("trial"))
		if err != nil {
			http.Error(w, "bad trial index", http.StatusBadRequest)
			return
		}
		leaseID, _ := strconv.ParseUint(q.Get("lease"), 10, 64)
		var res fleet.TrialResult
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultBody))
		if err := dec.Decode(&res); err != nil {
			http.Error(w, fmt.Sprintf("bad result body: %v", err), http.StatusBadRequest)
			return
		}
		ack, err := s.SubmitResult(q.Get("campaign"), index, leaseID, res)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, ack)
	})

	if cfg.Pprof {
		telemetry.MountPprof(mux)
	}
	if s.tel != nil {
		mux.Handle("/", telemetry.Handler(s.tel))
	}
	return withAuth(cfg.AuthToken, mux)
}

// withAuth enforces the shared-secret bearer token on every route except
// /healthz (liveness probes carry no secrets). Comparison is constant
// time; with no token configured the handler passes through unchanged.
func withAuth(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="canfuzzd"`)
			http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// httpError maps service errors onto HTTP statuses.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrGone), errors.Is(err, campaignd.ErrLeaseGone):
		status = http.StatusGone
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrAlreadyDone):
		status = http.StatusConflict
	case errors.Is(err, campaignd.ErrBadResult):
		status = http.StatusBadRequest
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
