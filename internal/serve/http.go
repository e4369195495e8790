package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP surface:
//
//	POST   /jobs             submit a job (JobRequest -> SubmitResponse)
//	GET    /jobs             list jobs (?client= filters)       -> JobListDoc
//	GET    /jobs/{id}        one job's state                    -> JobView
//	GET    /jobs/{id}/front  golden + learned Pareto fronts     -> FrontDoc
//	GET    /jobs/{id}/events progress stream: SSE, or the
//	                         long-poll fallback with ?poll=1&since=N -> EventPage
//	DELETE /jobs/{id}        request cancellation               -> JobView
//	GET    /healthz          liveness                           -> HealthDoc
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/front", s.handleFront)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON writes one JSON document. SetIndent keeps the payloads diffable
// in the CI byte-identity proofs.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorDoc{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	resp, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, resp)
	case errors.Is(err, errBadRequest):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, errRateLimited):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errStopped):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Views(r.URL.Query().Get("client")))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.View(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, ok := s.Front(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthDoc{OK: !s.stopping(), Jobs: n})
}

// handleEvents streams a job's progress log. The default mode is SSE: every
// event goes out as an `event: <type>` / `data: <json>` pair, the stream
// stays open until the job reaches a terminal status or the server drains,
// and a draining server always sends a final `event: shutdown` so clients
// can tell an orderly stop from a dropped connection. ?poll=1 selects the
// long-poll fallback for clients without SSE: one EventPage per request,
// waiting (bounded by the client's context) only when ?since=N is already
// current.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		// Jobs from a previous process that finished before this boot have
		// no live event log; synthesize their terminal status.
		rec, ok := s.manifest.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		j = &job{id: id, status: rec.Status, log: newEventLog()}
		j.log.append(Event{Type: "status", Job: id, Status: rec.Status, Message: rec.Error})
	}
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "since must be a non-negative integer")
			return
		}
		since = n
	}
	if r.URL.Query().Get("poll") != "" {
		s.longPoll(w, r, j, since)
		return
	}
	s.serveSSE(w, r, j, since)
}

// longPoll returns the events after the cursor, blocking (bounded by the
// request context and server shutdown) until at least one is available.
func (s *Server) longPoll(w http.ResponseWriter, r *http.Request, j *job, since int) {
	for {
		events, changed, final := j.log.after(since)
		if len(events) > 0 {
			writeJSON(w, http.StatusOK, EventPage{Events: events, Next: events[len(events)-1].Seq})
			return
		}
		if s.stopping() || final {
			writeJSON(w, http.StatusOK, EventPage{Events: []Event{}, Next: since})
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			writeJSON(w, http.StatusOK, EventPage{Events: []Event{}, Next: since})
			return
		case <-s.stop:
			writeJSON(w, http.StatusOK, EventPage{Events: []Event{}, Next: since})
			return
		}
	}
}

// serveSSE streams events until the job is terminal, the client leaves, or
// the server drains — in the drain case the stream's last words are an
// `event: shutdown` record, the graceful-termination contract clients rely
// on to distinguish a drain from a crash.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, j *job, since int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported; use ?poll=1")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		events, changed, final := j.log.after(since)
		for _, e := range events {
			if err := writeSSE(w, e); err != nil {
				return
			}
			since = e.Seq
		}
		if len(events) > 0 {
			fl.Flush()
		}
		if final {
			return // the terminal status event has been sent
		}
		if s.stopping() {
			_ = writeSSE(w, Event{Type: "shutdown", Job: j.id, Message: "server shutting down; reconnect to resume from seq"})
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.stop:
			_ = writeSSE(w, Event{Type: "shutdown", Job: j.id, Message: "server shutting down; reconnect to resume from seq"})
			fl.Flush()
			return
		}
	}
}

// writeSSE emits one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
	return err
}
