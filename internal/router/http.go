package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"newsum/internal/service"
)

// The proxy layer: each /solve request is hashed to its ring order and
// forwarded to the less busy of the first two healthy, non-saturated slots
// (see pick). Three failure shapes are handled distinctly:
//
//   - Network failure (connection refused/reset, mid-response drop): the
//     crash signature. The slot is reported to the supervisor and the job
//     is re-dispatched to the next slot in ring order, bounded by the retry
//     budget. A streamed job may replay progress lines from attempt one;
//     the terminal result/error line is only ever relayed once.
//   - Saturation (backend 429, or a streamed queue-full error line): the
//     slot is marked saturated for this job and routed around WITHOUT
//     consuming retry budget — an overloaded backend is healthy, just
//     busy. Only when every live replica is saturated does the router
//     surface 429, with Retry-After aggregated as the minimum hint across
//     replicas (the soonest any backend expects capacity).
//   - Application outcome (2xx/4xx/5xx from a completed solve): relayed
//     verbatim. The router adds no interpretation of solver results.
const maxBodyBytes = 64 << 20

// httpError mirrors the backend's error body shape.
type httpError struct {
	Error string `json:"error"`
}

var (
	errAllSaturated = errors.New("router: all backends saturated")
	errNoBackend    = errors.New("router: no healthy backend")
	errBudget       = errors.New("router: retry budget exhausted")
)

// Handler returns the router's HTTP surface — the same endpoints as one
// newsum-serve, so clients cannot tell a router from a single backend.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/healthz", rt.handleHealth)
	return mux
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, rt.Stats())
}

// handleHealth reports 200 while at least one slot is dispatchable: the
// tier is up as long as any replica can take work.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	for _, s := range rt.slots {
		if _, ok := s.healthyURL(); ok {
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "ok\n") //lint:ignore errdrop health probe reply; a hangup is the prober's problem
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, httpError{Error: errNoBackend.Error()})
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("read request: %v", err)})
		return
	}
	// Decode only to learn the routing key; the original bytes are what get
	// forwarded, so the backend sees exactly what the client sent.
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	rt.count(func(c *routerCounters) { c.jobs++ })
	d := &dispatch{
		rt:        rt,
		order:     rt.ring.order(req.Matrix.Fingerprint()),
		budget:    rt.cfg.RetryBudget,
		saturated: map[int]int{},
		waitUntil: time.Now().Add(rt.cfg.DispatchWait),
	}
	rt.proxy(w, r, d, body)
}

// dispatch is one job's routing state: its ring order, remaining retry
// budget, the slots found saturated (with their Retry-After hints) and the
// slots an attempt failed on.
type dispatch struct {
	rt        *Router
	order     []int
	budget    int
	saturated map[int]int
	failed    map[int]bool
	waitUntil time.Time
}

// pick selects the next target: of the first two healthy, non-saturated
// slots in ring order, the one with fewer jobs in flight, ties to the first.
// An idle or evenly loaded router therefore sends every job to its primary;
// under a collision a job spills to its operator's secondary and never
// further, so an operator's encoding is cached on at most two backends.
// A slot an attempt of this job failed on is a candidate only when no
// other is: the supervisor re-admits a slot whose /healthz answers, which
// can happen before the job picks again, and says nothing of the /solve
// that just failed. When every healthy slot is saturated it reports
// saturation; when no slot is healthy it waits, within the dispatch budget,
// for the supervisor to revive one — a restart takes milliseconds, and
// failing the job instead would surface a recoverable fault to the client.
func (d *dispatch) pick(ctx context.Context) (int, string, error) {
	for {
		sawHealthy := false
		first, firstURL, firstLoad := -1, "", int64(0)
		again, againURL := -1, ""
		for _, idx := range d.order {
			url, ok := d.rt.slots[idx].healthyURL()
			if !ok {
				continue
			}
			sawHealthy = true
			if _, sat := d.saturated[idx]; sat {
				continue
			}
			if d.failed[idx] {
				if again < 0 {
					again, againURL = idx, url
				}
				continue
			}
			load := d.rt.slots[idx].inFlight.Load()
			if first >= 0 {
				if load < firstLoad {
					return idx, url, nil
				}
				break
			}
			if load == 0 {
				return idx, url, nil // an idle first candidate cannot lose
			}
			first, firstURL, firstLoad = idx, url, load
		}
		if first >= 0 {
			return first, firstURL, nil
		}
		if again >= 0 {
			return again, againURL, nil
		}
		if sawHealthy {
			return 0, "", errAllSaturated
		}
		if time.Now().After(d.waitUntil) {
			return 0, "", errNoBackend
		}
		select {
		case <-ctx.Done():
			return 0, "", ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// spendRetry consumes one unit of retry budget after a backend failure and
// reports whether the job may be re-dispatched.
func (d *dispatch) spendRetry(idx int) bool {
	d.rt.noteFailure(idx)
	if d.failed == nil {
		d.failed = map[int]bool{}
	}
	d.failed[idx] = true
	d.budget--
	if d.budget < 0 {
		return false
	}
	d.rt.count(func(c *routerCounters) { c.redispatches++ })
	return true
}

// routeAround marks a slot saturated for this job (no budget consumed).
func (d *dispatch) routeAround(idx, retryAfter int) {
	d.saturated[idx] = retryAfter
	d.rt.count(func(c *routerCounters) { c.routedAround++ })
}

// minRetryAfter aggregates the backpressure hint across saturated replicas:
// the soonest any of them expects to have capacity.
func (d *dispatch) minRetryAfter() int {
	min := 0
	for _, ra := range d.saturated {
		if min == 0 || ra < min {
			min = ra
		}
	}
	if min <= 0 {
		min = 1
	}
	return min
}

// forward sends the job body to one backend.
func (rt *Router) forward(ctx context.Context, url string, body []byte, stream bool) (*http.Response, error) {
	target := url + "/solve"
	if stream {
		target += "?stream=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return rt.client.Do(req)
}

func retryAfterHeader(resp *http.Response) int {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return secs
	}
	return 1
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) //lint:ignore errdrop draining a doomed body so the connection can be reused; errors change nothing
	resp.Body.Close()
}

// relay is the client side of one job. Nothing reaches the client before
// the attempt that ends the job, except a stream's progress lines; the
// header goes out with the first byte. Only relayStream flushes: the bytes
// that end the job go out when the handler returns.
type relay struct {
	w           http.ResponseWriter
	stream      bool
	wroteHeader bool
}

func (rl *relay) write(status int, contentType string, b []byte) {
	if !rl.wroteHeader {
		if contentType != "" {
			rl.w.Header().Set("Content-Type", contentType)
		}
		rl.w.WriteHeader(status)
		rl.wroteHeader = true
	}
	_, _ = rl.w.Write(b) //lint:ignore errdrop a client hangup only ends the relay early; nothing to recover
}

// upstreamEnd is how one attempt ended when it did not fail: saturated
// (retryAfter > 0), or with the bytes that end the job, not yet relayed —
// a buffered reply, a pre-stream rejection, or a stream's terminal line.
type upstreamEnd struct {
	retryAfter  int
	status      int
	contentType string
	last        []byte
}

// proxy dispatches the job until an attempt ends it, routing around
// saturated slots and re-dispatching after failed ones. A buffered reply is
// read in full before a byte reaches the client, so a backend dying
// mid-response is indistinguishable from one dying before it — both
// re-dispatch. A stream's progress lines flow through as they arrive (see
// relayStream); if the upstream dies before its terminal line, the client
// sees the next attempt's lines on the same response. The line or reply
// that ends the job is written unflushed: the handler returns right after
// it, and net/http sends it with the end of the response in one write.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, d *dispatch, body []byte) {
	rl := &relay{w: w, stream: r.URL.Query().Get("stream") == "1"}
	for {
		idx, url, err := d.pick(r.Context())
		if err == nil {
			var end upstreamEnd
			end, err = rt.attempt(r.Context(), rl, idx, url, body)
			switch {
			case err == nil && end.retryAfter > 0:
				d.routeAround(idx, end.retryAfter)
				continue
			case err == nil:
				rl.write(end.status, end.contentType, end.last)
				return
			case r.Context().Err() != nil:
				return // the client is gone; nothing to deliver or retry for
			case d.spendRetry(idx):
				continue
			}
			err = fmt.Errorf("%w: %v", errBudget, err)
		}
		rt.failJob(rl, d, err)
		return
	}
}

// attempt is one dispatch of the job to slot idx, and the one owner of the
// slot's in-flight count: up on entry, down on every return — relayed,
// saturated or failed, the client gone included. The bytes that end the
// job are returned, not written, so the count is down before the client
// can see the job end and send its next one.
func (rt *Router) attempt(ctx context.Context, rl *relay, idx int, url string, body []byte) (upstreamEnd, error) {
	s := rt.slots[idx]
	s.mu.Lock()
	s.dispatched++
	s.mu.Unlock()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	resp, err := rt.forward(ctx, url, body, rl.stream)
	if err != nil {
		return upstreamEnd{}, err
	}
	s.lastReply.Store(time.Now().UnixNano())
	if resp.StatusCode == http.StatusTooManyRequests {
		// A stream reports overload as an error line, but a header-level
		// 429 is saturation there too.
		drainClose(resp)
		return upstreamEnd{retryAfter: retryAfterHeader(resp)}, nil
	}
	if rl.stream && resp.StatusCode == http.StatusOK {
		return rl.relayStream(resp)
	}
	// A buffered reply, or a pre-stream rejection (e.g. 400): relayed
	// verbatim once.
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() //lint:ignore errdrop body fully read; err above already carries any transport failure
	return upstreamEnd{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), last: out}, err
}

// failJob surfaces a dispatch failure: as a proper status while the
// response is unstarted, as a terminal NDJSON error line after.
func (rt *Router) failJob(rl *relay, d *dispatch, err error) {
	if rl.wroteHeader {
		line, _ := json.Marshal(streamLine{Event: "error", Error: err.Error()}) //lint:ignore errdrop marshaling a flat struct of two strings cannot fail
		rl.write(http.StatusOK, "", append(line, '\n'))
		return
	}
	w := rl.w
	switch {
	case errors.Is(err, errAllSaturated):
		rt.count(func(c *routerCounters) { c.saturated++ })
		w.Header().Set("Retry-After", strconv.Itoa(d.minRetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
	case errors.Is(err, errNoBackend):
		rt.count(func(c *routerCounters) { c.noBackend++ })
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, httpError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadGateway, httpError{Error: err.Error()})
	}
}

// streamLine is the minimal decode of one upstream NDJSON line: enough to
// recognize the terminal result/error line and the admission-overload
// error. Lines are relayed as raw bytes, never re-encoded.
type streamLine struct {
	Event string `json:"event"`
	Error string `json:"error"`
}

// progressPrefix is how every progress line the service writes begins: its
// progress encoder renders the event field first, byte for byte as
// encoding/json would. Such a line is neither terminal nor an overload
// error, so the relay passes it on without decoding it.
var progressPrefix = []byte(`{"event":"progress",`)

// relayStream copies upstream NDJSON lines to the client up to the terminal
// line, which it returns unrelayed. A first line that is the service's
// admission-overload error (exactly service.ErrOverloaded) is saturation:
// route around, nothing relayed — which holds because admission is checked
// before the first progress event exists. An upstream failure before the
// terminal line returns the error.
//
// Delivery rule: a relayed line is flushed only when the reader holds no
// complete further line, the moment the next read could block. Lines that
// arrived together leave together, and nothing relayed waits on upstream.
func (rl *relay) relayStream(resp *http.Response) (upstreamEnd, error) {
	defer resp.Body.Close() //lint:ignore errdrop relay outcome is decided by the line loop; the close is cleanup
	br := bufio.NewReader(resp.Body)
	flusher, _ := rl.w.(http.Flusher)
	first := true
	for {
		// A line points into br's buffer until the next read; the terminal
		// one is returned with no read after it.
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			line, rerr = readLong(br, line)
		}
		if len(line) > 0 {
			if !bytes.HasPrefix(line, progressPrefix) {
				var sl streamLine
				_ = json.Unmarshal(line, &sl) //lint:ignore errdrop a malformed upstream line is still relayed verbatim
				if first && sl.Event == "error" && sl.Error == service.ErrOverloaded.Error() {
					return upstreamEnd{retryAfter: 1}, nil
				}
				if sl.Event == "result" || sl.Event == "error" {
					return upstreamEnd{status: http.StatusOK, contentType: ndjson, last: line}, nil
				}
			}
			first = false
			rl.write(http.StatusOK, ndjson, line)
			if flusher != nil && !lineBuffered(br) {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return upstreamEnd{}, rerr
		}
	}
}

// readLong finishes a line that filled br's buffer: head, copied out of the
// buffer, and the rest up to the newline.
func readLong(br *bufio.Reader, head []byte) ([]byte, error) {
	head = append([]byte(nil), head...)
	rest, err := br.ReadBytes('\n')
	return append(head, rest...), err
}

// lineBuffered reports whether br already holds a complete line, so that
// reading it cannot block.
func lineBuffered(br *bufio.Reader) bool {
	buf, err := br.Peek(br.Buffered())
	return err == nil && bytes.IndexByte(buf, '\n') >= 0
}

const ndjson = "application/x-ndjson"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //lint:ignore errdrop the response is already committed; a client hangup here is unactionable
}
