package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxBodyBytes bounds request bodies; a table-5-scale sweep manifest is a
// few hundred KB, so 16 MiB leaves generous headroom without letting a
// confused client exhaust the coordinator.
const maxBodyBytes = 16 << 20

// Handler serves the coordinator protocol:
//
//	POST /v1/sweeps              submit a sweep (SubmitRequest)
//	GET  /v1/sweeps/{id}         one sweep's status
//	GET  /v1/sweeps/{id}/results completed scenarios so far
//	POST /v1/lease               poll for work (LeaseRequest)
//	POST /v1/lease/{id}/heartbeat
//	POST /v1/lease/{id}/results  submit a lease's results (ResultSubmission)
//	POST /v1/lease/{id}/fail     report a lease failure (FailRequest)
//	GET  /v1/status              whole-service status
//	GET  /v1/healthz             process liveness (always 200)
//	GET  /v1/readyz              200 once journal replay finished, else 503
//	GET  /v1/cache/stats         the coordinator's result-cache counters
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := c.Submit(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.SweepStatus(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		resp, err := c.SweepResults(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := c.Lease(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/lease/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id")); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/lease/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		var sub ResultSubmission
		if !decodeBody(w, r, &sub) {
			return
		}
		if err := c.Results(r.PathValue("id"), sub); err != nil {
			// Version and payload problems are the client's fault; a missing
			// lease is a conflict the worker resolves by dropping the shard.
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "not found") {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/lease/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Fail(r.PathValue("id"), req); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET "+HealthPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET "+ReadyPath, func(w http.ResponseWriter, r *http.Request) {
		// Ready gates on journal replay: load balancers and the restart
		// half of the fault-injection tests wait here before dispatching.
		if !c.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET "+CachePath+"/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Cache().Stats()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	return mux
}

// decodeBody strictly decodes one JSON document into v, answering 400 on
// failure. Returns false when the response is already written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: reading request: %w", err))
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: decoding request: %w", err))
		return false
	}
	return true
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The protocol's value shapes cannot fail to marshal; a broken pipe
	// mid-write is the client's problem.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the protocol's JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
