package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"newsum/internal/service"
)

// fastSupervision is a test config with tight probe/restart cadences so
// recovery paths run in milliseconds instead of the production defaults.
func fastSupervision(backends ...Backend) Config {
	return Config{
		Backends:          backends,
		HealthInterval:    10 * time.Millisecond,
		HealthTimeout:     250 * time.Millisecond,
		RestartBackoff:    5 * time.Millisecond,
		RestartBackoffMax: 100 * time.Millisecond,
		WarmupBudget:      2 * time.Second,
		DispatchWait:      5 * time.Second,
	}
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := rt.Close(); err != nil {
			t.Errorf("router.Close: %v", err)
		}
	})
	return rt, srv
}

func postSolve(t *testing.T, url string, req service.Request) *http.Response {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	return resp
}

func decodeResponse(t *testing.T, resp *http.Response) service.Response {
	t.Helper()
	defer resp.Body.Close()
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}

// specWithPrimary searches seeds until the spec's fingerprint lands on the
// wanted primary slot — the Seed field feeds the fingerprint even for
// generator kinds that ignore it, so this stays the same operator family.
func specWithPrimary(t *testing.T, r *ring, base service.MatrixSpec, primary int) service.MatrixSpec {
	t.Helper()
	for seed := int64(1); seed < 8192; seed++ {
		sp := base
		sp.Seed = seed
		if r.order(sp.Fingerprint())[0] == primary {
			return sp
		}
	}
	t.Fatalf("no seed maps %q onto slot %d", base.Kind, primary)
	return base
}

// relayedLine mirrors the NDJSON stream shape for test-side decoding.
type relayedLine struct {
	Event  string            `json:"event"`
	Result *service.Response `json:"result"`
	Error  string            `json:"error"`
}

func TestRouterRoundTripAndAffinity(t *testing.T) {
	backends := []Backend{
		&LocalBackend{Cfg: service.Config{Workers: 2, QueueDepth: 16}},
		&LocalBackend{Cfg: service.Config{Workers: 2, QueueDepth: 16}},
	}
	rt, srv := newTestRouter(t, fastSupervision(backends...))

	spec := service.MatrixSpec{Kind: "laplace2d", N: 12}
	primary := rt.ring.order(spec.Fingerprint())[0]
	const jobs = 6
	for i := 0; i < jobs; i++ {
		out := decodeResponse(t, postSolve(t, srv.URL, service.Request{Matrix: spec}))
		if !out.Converged || out.N != 144 {
			t.Fatalf("job %d: converged=%v n=%d", i, out.Converged, out.N)
		}
	}

	st := rt.Stats()
	if st.Jobs != jobs {
		t.Fatalf("router jobs = %d, want %d", st.Jobs, jobs)
	}
	if st.Slots[primary].Dispatched != jobs {
		t.Fatalf("primary slot dispatched %d, want %d (affinity broken): %+v",
			st.Slots[primary].Dispatched, jobs, st.Slots)
	}
	if other := st.Slots[1-primary].Dispatched; other != 0 {
		t.Fatalf("non-primary slot dispatched %d, want 0", other)
	}
	// The whole fingerprint's load lives on one backend: its sibling's
	// encoding cache was never touched.
	if got := backends[1-primary].(*LocalBackend).Service().Stats().Accepted; got != 0 {
		t.Fatalf("non-primary backend accepted %d jobs, want 0", got)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hz.Status)
	}
	hz.Body.Close()
	stResp, err := http.Get(srv.URL + "/stats")
	if err != nil || stResp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, stResp.Status)
	}
	var snap Stats
	if err := json.NewDecoder(stResp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	stResp.Body.Close()
	if snap.Jobs != jobs || len(snap.Slots) != 2 {
		t.Fatalf("stats snapshot %+v", snap)
	}
}

func TestRouterMethodAndDecodeErrors(t *testing.T) {
	_, srv := newTestRouter(t, fastSupervision(
		&LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}))

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/solve"); got != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve = %d, want 405", got)
	}
	resp, err := http.Post(srv.URL+"/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats = %d, want 405", resp.StatusCode)
	}
	for _, body := range []string{"{nope", `{"sovler":"pcg"}`} {
		resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q = %d, want 400", body, resp.StatusCode)
		}
	}
	// A semantically bad request passes the router's decode and is rejected
	// by the backend; on a stream that rejection is a terminal error line,
	// relayed verbatim (not mistaken for a crash and retried).
	buf, _ := json.Marshal(service.Request{Solver: "sor", Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	resp, err = http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed bad solver status = %d, want 200 + error line", resp.StatusCode)
	}
	var line relayedLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatalf("decode error line: %v", err)
	}
	if line.Event != "error" || !strings.Contains(line.Error, "unknown solver") {
		t.Fatalf("terminal line %+v, want backend validation error", line)
	}
}

// TestRouterOversizedGridIsABadRequest: a grid side whose square wraps int
// is the backend's 400, relayed as such. Were it admitted, building the
// operator would panic on a service worker and take the in-process backend
// down with it; the router would re-dispatch the job and restart the slot.
func TestRouterOversizedGridIsABadRequest(t *testing.T) {
	rt, srv := newTestRouter(t, fastSupervision(
		&LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}},
		&LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}))
	for _, n := range []string{"4294967296", "3037000500"} {
		body := `{"matrix":{"kind":"laplace2d","n":` + n + `}}`
		resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("n=%s: status %d, want 400", n, resp.StatusCode)
		}
	}
	st := rt.Stats()
	if st.Redispatches != 0 {
		t.Fatalf("redispatches = %d, want 0", st.Redispatches)
	}
	for _, s := range st.Slots {
		if s.Restarts != 0 || s.State != slotHealthy.String() {
			t.Fatalf("slot %d: %d restarts, state %s; want 0, healthy", s.Slot, s.Restarts, s.State)
		}
	}
}

func TestRouterStreamRelay(t *testing.T) {
	_, srv := newTestRouter(t, fastSupervision(
		&LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}))

	buf, _ := json.Marshal(service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var progress int
	var terminal relayedLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line relayedLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Event == "progress" {
			progress++
			continue
		}
		terminal = line
	}
	if terminal.Event != "result" || terminal.Result == nil || !terminal.Result.Converged {
		t.Fatalf("terminal line %+v, want converged result", terminal)
	}
	if progress == 0 {
		t.Fatal("no progress lines relayed")
	}
}

// TestRouterKillMidSolveRedispatch is the tentpole's acceptance test: a
// backend killed mid-solve is restarted by the supervisor and its in-flight
// job re-dispatched, with no client-visible failure beyond latency.
func TestRouterKillMidSolveRedispatch(t *testing.T) {
	backends := []*LocalBackend{
		{Cfg: service.Config{Workers: 1, QueueDepth: 8}},
		{Cfg: service.Config{Workers: 1, QueueDepth: 8}},
	}
	rt, srv := newTestRouter(t, fastSupervision(backends[0], backends[1]))

	// A 16384-unknown Laplacian runs long enough (hundreds of PCG
	// iterations) that the kill below lands mid-solve with wide margin.
	spec := specWithPrimary(t, rt.ring, service.MatrixSpec{Kind: "laplace2d", N: 128}, 0)
	buf, _ := json.Marshal(service.Request{Matrix: spec})
	resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	killed := false
	var terminal relayedLine
	for sc.Scan() {
		var line relayedLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if !killed && line.Event == "progress" {
			// The solve is now running on the primary; kill that process.
			if err := backends[0].Stop(); err != nil {
				t.Fatalf("kill primary: %v", err)
			}
			killed = true
			continue
		}
		if line.Event == "result" || line.Event == "error" {
			terminal = line
			break
		}
	}
	if !killed {
		t.Fatal("stream ended before any progress line; nothing was killed")
	}
	if terminal.Event != "result" || terminal.Result == nil || !terminal.Result.Converged {
		t.Fatalf("terminal line %+v, want converged result after re-dispatch", terminal)
	}
	st := rt.Stats()
	if st.Redispatches < 1 {
		t.Fatalf("redispatches = %d, want >= 1: %+v", st.Redispatches, st)
	}
	if st.Slots[1].Dispatched < 1 {
		t.Fatalf("fail-over slot never dispatched: %+v", st.Slots)
	}

	// The supervisor must also resurrect the killed backend.
	deadline := time.Now().Add(3 * time.Second)
	for {
		s0 := rt.Stats().Slots[0]
		if s0.Restarts >= 1 && s0.State == slotHealthy.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never restarted: %+v", s0)
		}
		time.Sleep(10 * time.Millisecond)
	}
	out := decodeResponse(t, postSolve(t, srv.URL, service.Request{Matrix: spec}))
	if !out.Converged {
		t.Fatal("solve after restart did not converge")
	}
}

// TestRouterZeroSDCUnder64MixedClients drives 64 concurrent clients with
// mixed fingerprints and chaos fault injection through the router: every
// job converges, and no backend lets silent data corruption through.
func TestRouterZeroSDCUnder64MixedClients(t *testing.T) {
	backends := []*LocalBackend{
		{Cfg: service.Config{Workers: 2, QueueDepth: 64}},
		{Cfg: service.Config{Workers: 2, QueueDepth: 64}},
		{Cfg: service.Config{Workers: 2, QueueDepth: 64}},
	}
	_, srv := newTestRouter(t, fastSupervision(backends[0], backends[1], backends[2]))

	specs := []service.MatrixSpec{
		{Kind: "laplace2d", N: 12},
		{Kind: "laplace2d", N: 16},
		{Kind: "spd", N: 300, Degree: 4, Seed: 7},
		{Kind: "spd", N: 400, Degree: 6, Seed: 9},
		{Kind: "circuit", N: 300, Seed: 11},
		{Kind: "circuit", N: 256, Seed: 13},
		{Kind: "spd", N: 350, Degree: 4, Seed: 17},
		{Kind: "circuit", N: 280, Seed: 23},
	}
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.Request{
				Matrix:      specs[i%len(specs)],
				ChaosFaults: 1,
				Seed:        int64(i + 1),
			}
			buf, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var out service.Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- fmt.Errorf("client %d: decode: %v", i, err)
				return
			}
			if !out.Converged {
				errs <- fmt.Errorf("client %d: did not converge", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var completed, sdc int64
	for _, lb := range backends {
		st := lb.Service().Stats()
		completed += st.Completed
		sdc += st.SDCSuspects
	}
	if completed != clients {
		t.Fatalf("backends completed %d jobs, want %d", completed, clients)
	}
	if sdc != 0 {
		t.Fatalf("sdc suspects = %d, want 0", sdc)
	}
}

// TestShardFleetZeroSuspectsAndFailures offers the same closed-loop chaos
// jobs over HTTP to a router in front of two two-worker backends and to one
// process holding the same four workers, and holds each side's
// fleet-wide suspected-SDC and failed-job counters at zero.
func TestShardFleetZeroSuspectsAndFailures(t *testing.T) {
	jobs := 48
	if testing.Short() {
		jobs = 24
	}
	cfg := func(workers int) service.Config {
		return service.Config{Workers: workers, QueueDepth: 64, CacheSize: 16, KernelWorkers: -1}
	}
	check := func(t *testing.T, services ...*service.Service) {
		var sdc, failed int64
		for _, svc := range services {
			st := svc.Stats()
			sdc += st.SDCSuspects
			failed += st.Failed
		}
		if sdc != 0 || failed != 0 {
			t.Errorf("sdc suspects = %d, failed jobs = %d, want 0 and 0", sdc, failed)
		}
	}
	t.Run("single", func(t *testing.T) {
		svc := service.New(cfg(4))
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		driveClosedLoop(t, srv.URL, 8, jobs)
		check(t, svc)
	})
	t.Run("router", func(t *testing.T) {
		backends := []*LocalBackend{{Cfg: cfg(2)}, {Cfg: cfg(2)}}
		_, srv := newTestRouter(t, Config{Backends: []Backend{backends[0], backends[1]}})
		driveClosedLoop(t, srv.URL, 8, jobs)
		check(t, backends[0].Service(), backends[1].Service())
	})
}

// driveClosedLoop offers jobs one-fault chaos solves over six operators
// from clients closed-loop HTTP clients, re-offering a job the server
// answered 429 after a millisecond per second of its Retry-After.
func driveClosedLoop(t *testing.T, url string, clients, jobs int) {
	t.Helper()
	specs := []service.MatrixSpec{
		{Kind: "laplace2d", N: 12},
		{Kind: "laplace2d", N: 16},
		{Kind: "laplace2d", N: 20},
		{Kind: "spd", N: 300, Degree: 4, Seed: 7},
		{Kind: "circuit", N: 300, Seed: 11},
		{Kind: "circuit", N: 256, Seed: 13},
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				buf, _ := json.Marshal(service.Request{Matrix: specs[i%len(specs)], ChaosFaults: 1, Seed: 20160531 + int64(i)})
				for {
					resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(buf))
					if err != nil {
						t.Errorf("job %d: %v", i, err)
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						time.Sleep(time.Duration(max(secs, 1)) * time.Millisecond)
						continue
					}
					var out service.Response
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					switch {
					case resp.StatusCode != http.StatusOK:
						t.Errorf("job %d: status %d", i, resp.StatusCode)
					case err != nil:
						t.Errorf("job %d: decode: %v", i, err)
					case !out.Converged:
						t.Errorf("job %d did not converge", i)
					}
					break
				}
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// stubBackend is a canned-handler StaticBackend for exercising proxy paths
// that are awkward to provoke from a real service.
func stubBackend(t *testing.T, solve http.HandlerFunc) (*StaticBackend, *int64) {
	t.Helper()
	var hits int64
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		solve(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &StaticBackend{Base: srv.URL}, &hits
}

func saturatedStub(t *testing.T, retryAfter string) (*StaticBackend, *int64) {
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAfter)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":"service: queue full"}`)
	})
}

func okStub(t *testing.T) (*StaticBackend, *int64) {
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.Response{Converged: true, N: 144})
	})
}

func TestRouter429RouteAround(t *testing.T) {
	sat, satHits := saturatedStub(t, "7")
	ok, okHits := okStub(t)
	rt, srv := newTestRouter(t, fastSupervision(sat, ok))

	// Primary saturated, secondary free: the job lands on the secondary and
	// the client never sees the 429.
	spec := specWithPrimary(t, rt.ring, service.MatrixSpec{Kind: "laplace2d", N: 12}, 0)
	out := decodeResponse(t, postSolve(t, srv.URL, service.Request{Matrix: spec}))
	if !out.Converged {
		t.Fatal("routed-around solve did not converge")
	}
	if *satHits != 1 || *okHits != 1 {
		t.Fatalf("hits sat=%d ok=%d, want 1/1", *satHits, *okHits)
	}
	st := rt.Stats()
	if st.RoutedAround != 1 || st.Saturated429 != 0 || st.Redispatches != 0 {
		t.Fatalf("stats %+v: want routed_around=1 and no budget spent", st)
	}
}

func TestRouterAllSaturatedAggregatesRetryAfter(t *testing.T) {
	satA, _ := saturatedStub(t, "9")
	satB, _ := saturatedStub(t, "4")
	rt, srv := newTestRouter(t, fastSupervision(satA, satB))

	resp := postSolve(t, srv.URL, service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// Aggregated hint: the soonest any replica expects capacity.
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After = %q, want 4 (min across replicas)", got)
	}
	if st := rt.Stats(); st.Saturated429 != 1 || st.RoutedAround != 2 {
		t.Fatalf("stats %+v: want saturated_429=1 routed_around=2", st)
	}
}

func TestRouterStreamOverloadRouteAround(t *testing.T) {
	overloaded, overloadedHits := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		// streamSolve's admission-overload shape: 200, then a terminal
		// queue-full error line.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"event":"error","error":"service: queue full"}`+"\n")
	})
	real := &LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}
	rt, srv := newTestRouter(t, fastSupervision(overloaded, real))

	spec := specWithPrimary(t, rt.ring, service.MatrixSpec{Kind: "laplace2d", N: 12}, 0)
	buf, _ := json.Marshal(service.Request{Matrix: spec})
	resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var terminal relayedLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "queue full") {
			t.Fatalf("overload line leaked to the client: %s", sc.Text())
		}
		var line relayedLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		terminal = line
	}
	if terminal.Event != "result" || terminal.Result == nil || !terminal.Result.Converged {
		t.Fatalf("terminal line %+v, want converged result from fail-over", terminal)
	}
	if *overloadedHits != 1 {
		t.Fatalf("overloaded stub hits = %d, want 1", *overloadedHits)
	}
	if st := rt.Stats(); st.RoutedAround != 1 || st.Redispatches != 0 {
		t.Fatalf("stats %+v: overload must route around without spending budget", st)
	}
}

func TestRouterRetryBudgetExhausted(t *testing.T) {
	// Backends that pass health checks but reset every solve connection:
	// each dispatch fails like a crash, so the budget drains and the
	// client gets a 502 instead of an infinite retry loop.
	reset := func() (*StaticBackend, *int64) {
		return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("stub server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
		})
	}
	a, _ := reset()
	b, _ := reset()
	cfg := fastSupervision(a, b)
	cfg.RetryBudget = 2
	rt, srv := newTestRouter(t, cfg)

	resp := postSolve(t, srv.URL, service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	var e httpError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "retry budget") {
		t.Fatalf("error body %+v (%v), want retry budget message", e, err)
	}
	if st := rt.Stats(); st.Redispatches != 2 {
		t.Fatalf("redispatches = %d, want 2 (the budget)", st.Redispatches)
	}
}

func TestRouterNoHealthyBackend(t *testing.T) {
	// A static backend whose process is gone: the supervisor can probe and
	// route around it but not restart it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	cfg := fastSupervision(&StaticBackend{Base: deadURL})
	cfg.DispatchWait = 100 * time.Millisecond
	rt, srv := newTestRouter(t, cfg)

	resp := postSolve(t, srv.URL, service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if st := rt.Stats(); st.NoBackend != 1 {
		t.Fatalf("no_backend = %d, want 1", st.NoBackend)
	}
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503 with no healthy slot", hz.StatusCode)
	}
}

func TestSupervisorRestartsDeadBackend(t *testing.T) {
	lb := &LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}
	rt, srv := newTestRouter(t, fastSupervision(lb))

	if err := lb.Stop(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		s0 := rt.Stats().Slots[0]
		if s0.Restarts >= 1 && s0.State == slotHealthy.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never restarted: %+v", s0)
		}
		time.Sleep(10 * time.Millisecond)
	}
	out := decodeResponse(t, postSolve(t, srv.URL, service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}}))
	if !out.Converged {
		t.Fatal("solve after restart did not converge")
	}
}

// TestSupervisorKeepsBusyBackendWithSlowProbe: a backend whose /healthz
// misses every deadline while it keeps answering jobs is starved, not dead.
// The replies the proxy receives while a probe waits keep the slot healthy,
// so it is never restarted under the solves it holds.
func TestSupervisorKeepsBusyBackendWithSlowProbe(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // every probe times out
	})
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.Response{Converged: true, N: 144})
	})
	busy := httptest.NewServer(mux)
	t.Cleanup(busy.Close)
	cfg := fastSupervision(&StaticBackend{Base: busy.URL})
	cfg.HealthTimeout = 50 * time.Millisecond
	cfg.DispatchWait = time.Second
	rt, srv := newTestRouter(t, cfg)

	body, _ := json.Marshal(service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}})
	stop := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				drainClose(resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s0 := rt.Stats().Slots[0]; s0.Restarts != 0 || s0.State != slotHealthy.String() {
		t.Fatalf("busy backend restarted: %+v", s0)
	}
}

// TestSupervisorRestartsAfterProxyFailure: replies received just before a
// crash do not shield the slot. With no probe cadence to help, the proxy's
// report of the first job that fails on the dead process alone takes the
// slot through suspect and dead to a restart.
func TestSupervisorRestartsAfterProxyFailure(t *testing.T) {
	lb := &LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 4}}
	cfg := fastSupervision(lb)
	cfg.HealthInterval = time.Hour
	cfg.HealthTimeout = 10 * time.Second
	cfg.DispatchWait = 100 * time.Millisecond
	rt, srv := newTestRouter(t, cfg)

	req := service.Request{Matrix: service.MatrixSpec{Kind: "laplace2d", N: 12}}
	if out := decodeResponse(t, postSolve(t, srv.URL, req)); !out.Converged {
		t.Fatal("solve before the crash did not converge")
	}
	if err := lb.Stop(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	postSolve(t, srv.URL, req).Body.Close() // fails on the dead process; no healthy slot remains
	deadline := time.Now().Add(3 * time.Second)
	for {
		s0 := rt.Stats().Slots[0]
		if s0.Failures >= 1 && s0.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy-reported failure did not restart the backend: %+v", s0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBackendLifecycles(t *testing.T) {
	t.Run("local double start", func(t *testing.T) {
		lb := &LocalBackend{Cfg: service.Config{Workers: 1, QueueDepth: 2}}
		current := func() string {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return lb.url
		}
		url, err := lb.Start()
		if err != nil || url == "" {
			t.Fatalf("start: %q %v", url, err)
		}
		if current() != url || lb.Service() == nil {
			t.Fatal("accessors disagree with Start")
		}
		if _, err := lb.Start(); err == nil {
			t.Fatal("second Start must fail")
		}
		if err := lb.Stop(); err != nil {
			t.Fatalf("stop: %v", err)
		}
		if err := lb.Stop(); err != nil {
			t.Fatalf("double stop must be a no-op, got %v", err)
		}
		if current() != "" || lb.Service() != nil {
			t.Fatal("accessors must clear after Stop")
		}
	})
	t.Run("static", func(t *testing.T) {
		sb := &StaticBackend{}
		if _, err := sb.Start(); err == nil {
			t.Fatal("empty static backend must fail to start")
		}
		sb.Base = "http://127.0.0.1:1"
		url, err := sb.Start()
		if err != nil || url != sb.Base {
			t.Fatalf("start: %q %v", url, err)
		}
		if err := sb.Stop(); err != nil {
			t.Fatalf("stop: %v", err)
		}
	})
	t.Run("router needs backends", func(t *testing.T) {
		if _, err := New(Config{}); err == nil {
			t.Fatal("New with no backends must fail")
		}
	})
}
