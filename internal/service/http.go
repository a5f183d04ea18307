package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds a /solve request body: an inline 262144-row operator
// with a few million triplets fits comfortably; anything larger is not a
// solve request.
const maxBodyBytes = 64 << 20

// Handler returns the service's HTTP API:
//
//	POST /solve            run a job, respond with the Response JSON
//	POST /solve?stream=1   respond with NDJSON progress events, then the result
//	GET  /stats            counters + latency quantiles (Snapshot JSON)
//	GET  /healthz          200 while accepting work, 503 while draining
//
// Backpressure surfaces as 429 with a Retry-After header; a job deadline
// expiring surfaces as 504.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// httpError is the JSON error body.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) //lint:ignore errdrop the response is already committed; a client hangup here is unactionable
}

// statusFor maps a Submit error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		s.streamSolve(w, r, req)
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeJSON(w, status, httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds estimates when a rejected client should come back:
// the time for the workers to drain the current queue at the observed
// mean service time, ⌈(queued+1)·mean / workers⌉, clamped to [1, 30]s.
// A fixed "1" (the old behavior) made every rejected client of a
// saturated service retry into the same full queue once a second; tying
// the hint to measured load spreads the herd across the drain window.
// Before any job has completed the mean is unknown and the floor applies.
func (s *Service) retryAfterSeconds() int {
	mean := s.stats.meanSolveMillis()
	queued := len(s.queue)
	secs := int(math.Ceil(float64(queued+1) * mean / 1000 / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// streamLine is one NDJSON line of a streamed solve: a progress event, the
// final result, or a terminal error.
type streamLine struct {
	Event  string    `json:"event"`
	Job    *JobEvent `json:"job,omitempty"`
	Result *Response `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// streamSolve runs the job while relaying its progress events as NDJSON
// lines, ending with a "result" (or "error") line. The submitting goroutine
// is joined through the result channel receive after the event channel
// closes.
//
// Delivery rule: every line reaches the client before the handler waits
// for the next event, and lines already queued share one write. A flush
// costs a syscall, a TCP segment and a wakeup on the far side, so the loop
// flushes only when the event channel is empty, the moment its receive
// could block. The terminal line is not flushed: the handler returns right
// after it, and net/http sends it with the chunk terminator in one write.
func (s *Service) streamSolve(w http.ResponseWriter, r *http.Request, req Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The most events a job emits: start, cache, one attempt per try, one
	// retry per retry and the result, so a reader that stalls for the whole
	// job drops none; 128 caps a large budget.
	events := make(chan JobEvent, min(2*s.cfg.MaxRetries+4, 128))
	type outcome struct {
		resp *Response
		err  error
	}
	result := make(chan outcome, 1)
	go func() {
		resp, err := s.SubmitObserved(r.Context(), req, events)
		result <- outcome{resp, err}
	}()

	// Progress lines are rendered by the allocation-free append encoder —
	// one reusable buffer per stream, zero steady-state allocations per
	// event (the reflective json.Encoder cost 2 allocs per event; see
	// the equivalence and AllocsPerRun tests in ndjson_test.go). The
	// one-shot result line below keeps encoding/json.
	var enc progressEncoder
	for ev := range events {
		_, _ = w.Write(enc.encodeProgress(&ev)) //lint:ignore errdrop a mid-stream client hangup only ends the stream early
		if flusher != nil && len(events) == 0 {
			flusher.Flush()
		}
	}
	out := <-result
	line := streamLine{Event: "result", Result: out.resp}
	if out.err != nil {
		line.Event = "error"
		line.Error = out.err.Error()
	}
	_ = json.NewEncoder(w).Encode(line) //lint:ignore errdrop the final line races a client hangup; nothing to recover
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
