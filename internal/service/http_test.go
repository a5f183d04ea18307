package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	return resp
}

func TestHTTPSolveRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/solve", Request{
		Matrix:      laplaceSpec(),
		ChaosFaults: 1,
		Seed:        42,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !out.Converged || out.N != 144 {
		t.Fatalf("converged=%v n=%d", out.Converged, out.N)
	}
	if out.VerifiedResidual > sdcTolFactor*1e-8 {
		t.Fatalf("verified residual %.3e", out.VerifiedResidual)
	}
}

func TestHTTPValidationAndMethodErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	t.Run("bad json", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})

	// A misspelt field is a 400 — and so is a request still written against
	// the removed per-request engine choice: it is refused, not silently run
	// on the one engine left.
	for name, body := range map[string]string{
		"unknown field": `{"sovler":"pcg"}`,
		"stale engine":  `{"engine":"par","ranks":4,"matrix":{"kind":"laplace2d","n":12}}`,
		"stale rank":    `{"matrix":{"kind":"laplace2d","n":12},"faults":[{"iteration":2,"index":-1,"rank":1}]}`,
		// Grid sides whose square wraps int64: to 0, and to a negative.
		"grid n*n wraps to 0":     `{"matrix":{"kind":"laplace2d","n":4294967296}}`,
		"grid n*n wraps negative": `{"matrix":{"kind":"convection","n":3037000500}}`,
		// A generator degree past the bound, and one that would allocate
		// until the process is killed.
		"degree 65":   `{"matrix":{"kind":"spd","n":4,"degree":65}}`,
		"degree 2^61": `{"matrix":{"kind":"spd","n":4,"degree":2305843009213693952}}`,
		// CircuitLike needs four nodes: below that its panic killed the
		// process from a worker goroutine.
		"circuit n=2": `{"matrix":{"kind":"circuit","n":2}}`,
		"circuit n=3": `{"matrix":{"kind":"circuit","n":3}}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}

	t.Run("bad request semantics", func(t *testing.T) {
		resp := postJSON(t, srv.URL+"/solve", Request{Solver: "sor", Matrix: laplaceSpec()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var e httpError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("error body missing: %v %+v", err, e)
		}
	})

	t.Run("solve method", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/solve")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("stats method", func(t *testing.T) {
		resp := postJSON(t, srv.URL+"/stats", map[string]string{})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("deadline maps to 504", func(t *testing.T) {
		resp := postJSON(t, srv.URL+"/solve", Request{
			Matrix:        MatrixSpec{Kind: "laplace2d", N: 100},
			Tol:           1e-12,
			TimeoutMillis: 1,
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", resp.StatusCode)
		}
	})
}

func TestHTTPStatsAndHealth(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/solve", Request{Matrix: laplaceSpec()})
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/solve", Request{Matrix: laplaceSpec()})
	resp.Body.Close()

	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(statsResp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if snap.Completed != 2 || snap.CacheHits != 1 {
		t.Fatalf("completed=%d cacheHits=%d, want 2 and 1", snap.Completed, snap.CacheHits)
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", health.StatusCode)
	}

	s.Close()
	health, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d, want 503", health.StatusCode)
	}
}

// TestHTTPStream exercises the NDJSON streaming path on a retried job: a
// sequence of progress lines followed by exactly one result line carrying
// the final response.
func TestHTTPStream(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxRetries: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/solve?stream=1", Request{
		Matrix:       laplaceSpec(),
		MaxRollbacks: 1,
		Faults:       []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var progress, results int
	var final *Response
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Event {
		case "progress":
			progress++
		case "result":
			results++
			final = line.Result
		default:
			t.Fatalf("unexpected stream event %q (error: %s)", line.Event, line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if results != 1 || final == nil {
		t.Fatalf("results = %d, want exactly 1", results)
	}
	if progress < 4 {
		t.Fatalf("progress lines = %d, want the retried job's full timeline", progress)
	}
	if !final.Converged || final.Attempts != 2 {
		t.Fatalf("final converged=%v attempts=%d", final.Converged, final.Attempts)
	}
}

// TestHTTPStreamDeliversBeforeWaiting: a progress line reaches the client
// before the handler waits for the next event. The attempt line of a solve
// that runs for a while must arrive while the job is still in flight.
func TestHTTPStreamDeliversBeforeWaiting(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/solve?stream=1", Request{
		Matrix: MatrixSpec{Kind: "laplace2d", N: 128},
		Tol:    1e-12,
	})
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		b, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended before the attempt line: %v", err)
		}
		var line streamLine
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", b, err)
		}
		if line.Event == "progress" && line.Job.Event == "attempt" {
			break
		}
	}
	if n := s.Stats().InFlight; n != 1 {
		t.Fatalf("in flight %d when the attempt line arrived, want 1: the line waited for the solve", n)
	}
	rest, err := io.ReadAll(br)
	if err != nil || !bytes.Contains(rest, []byte(`"event":"result"`)) {
		t.Fatalf("stream tail %q (%v), want it to end in the result line", rest, err)
	}
}

// stalledWriter is a ResponseWriter whose first Write blocks until release
// closes: the stream's reader takes one event and then reads nothing more.
type stalledWriter struct {
	http.ResponseWriter
	release <-chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { <-w.release })
	return w.ResponseWriter.Write(b)
}

func (w *stalledWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestHTTPStreamKeepsEveryEvent: a job that spends its whole retry budget
// while its stream reads nothing until the job is over still delivers the
// full timeline, and the service drops no event.
func TestHTTPStreamKeepsEveryEvent(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxRetries: 1})
	defer s.Close()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(&stalledWriter{ResponseWriter: w, release: release}, r)
	}))
	defer srv.Close()

	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().Completed+s.Stats().Failed == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	resp := postJSON(t, srv.URL+"/solve?stream=1", Request{
		Matrix:       laplaceSpec(),
		MaxRollbacks: 1,
		Faults:       []FaultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}},
	})
	defer resp.Body.Close()
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Event != "progress" {
			kinds = append(kinds, line.Event)
			continue
		}
		kinds = append(kinds, line.Job.Event)
	}
	want := []string{"start", "cache", "attempt", "retry", "attempt", "result", "result"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("stream %v, want %v", kinds, want)
	}
	if n := s.Stats().EventsDropped; n != 0 {
		t.Fatalf("events dropped = %d, want 0", n)
	}
}

// TestHTTPBackpressure drives the 429 path through the full HTTP stack.
func TestHTTPBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	slow := Request{Matrix: MatrixSpec{Kind: "laplace2d", N: 100}, Tol: 1e-10}
	const burst = 12
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/solve", slow)
			defer resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)

	overloaded := 0
	for code := range codes {
		if code == http.StatusTooManyRequests {
			overloaded++
		} else if code != http.StatusOK {
			t.Fatalf("unexpected status %d", code)
		}
	}
	if overloaded == 0 {
		t.Fatal("no 429 from a 12-job burst against workers=1 queue=1")
	}
}

// TestRetryAfterDerivedFromLoad drives a saturated queue and checks the
// 429 Retry-After header is the drain estimate ⌈(queued+1)·mean/workers⌉
// clamped to [1, 30], not the old hardcoded "1". The service is built as
// a literal — no workers running — so the queue stays exactly as stuffed
// and the observed mean is exactly what the test seeds.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	mk := func(workers, queueDepth int) *Service {
		return &Service{
			cfg:   Config{Workers: workers, QueueDepth: queueDepth, MaxMatrixRows: 262144, KernelWorkers: 1}.normalized(),
			queue: make(chan *job, queueDepth),
		}
	}
	saturate := func(s *Service) {
		for i := 0; i < cap(s.queue); i++ {
			s.queue <- &job{}
		}
	}
	post := func(t *testing.T, s *Service) *http.Response {
		t.Helper()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp := postJSON(t, srv.URL+"/solve", Request{Matrix: laplaceSpec()})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		return resp
	}

	t.Run("derived from queue and mean", func(t *testing.T) {
		s := mk(2, 8)
		saturate(s)
		// Seed an observed mean of 3000 ms per job.
		for i := 0; i < 4; i++ {
			s.stats.recordSolve(&Response{}, 3000)
		}
		// (8 queued + 1) × 3 s / 2 workers = 13.5 → ceil 14.
		if got := post(t, s).Header.Get("Retry-After"); got != "14" {
			t.Fatalf("Retry-After = %q, want 14", got)
		}
	})

	t.Run("clamped to 30s", func(t *testing.T) {
		s := mk(1, 4)
		saturate(s)
		s.stats.recordSolve(&Response{}, 60_000)
		if got := post(t, s).Header.Get("Retry-After"); got != "30" {
			t.Fatalf("Retry-After = %q, want 30 (clamp)", got)
		}
	})

	t.Run("floor of 1s before any sample", func(t *testing.T) {
		s := mk(4, 2)
		saturate(s)
		if got := post(t, s).Header.Get("Retry-After"); got != "1" {
			t.Fatalf("Retry-After = %q, want 1 (cold floor)", got)
		}
	})
}
