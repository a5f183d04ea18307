package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"newsum/internal/service"
)

// specWithOrder searches seeds until the spec's ring order starts with want.
func specWithOrder(t *testing.T, r *ring, base service.MatrixSpec, want ...int) service.MatrixSpec {
	t.Helper()
	for seed := int64(1); seed < 8192; seed++ {
		sp := base
		sp.Seed = seed
		order := r.order(sp.Fingerprint())
		match := true
		for k, s := range want {
			match = match && order[k] == s
		}
		if match {
			return sp
		}
	}
	t.Fatalf("no seed gives %q the ring order %v", base.Kind, want)
	return base
}

var tinySpec = service.MatrixSpec{Kind: "laplace2d", N: 12}

// gate holds the solves of gateStubs until it opens, announcing each
// arrival on entered. A test registers open as a cleanup after the router's,
// so a failing test does not leave the router's server waiting on a held job.
type gate struct {
	release, entered chan struct{}
	once             sync.Once
}

func newGate() *gate { return &gate{release: make(chan struct{}), entered: make(chan struct{}, 4)} }

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// gateStub is a backend whose solves block until g opens (or the router
// abandons the request).
func gateStub(t *testing.T, g *gate) (*StaticBackend, *int64) {
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		g.entered <- struct{}{}
		select {
		case <-g.release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.Response{Converged: true, N: 144})
	})
}

// streamStub answers ?stream=1 with one progress line and then last.
func streamStub(t *testing.T, last string) (*StaticBackend, *int64) {
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, `{"event":"progress"}`+"\n"+last+"\n")
	})
}

const okLine = `{"event":"result","result":{"converged":true,"n":144}}`

func resetStub(t *testing.T) (*StaticBackend, *int64) {
	return stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
}

// postAsync sends one job in the background; the returned func waits for it
// and checks it succeeded.
func postAsync(t *testing.T, url string, spec service.MatrixSpec) func() {
	var wg sync.WaitGroup
	var status int
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf, _ := json.Marshal(service.Request{Matrix: spec})
		var resp *http.Response
		if resp, err = http.Post(url+"/solve", "application/json", bytes.NewReader(buf)); err == nil {
			status = resp.StatusCode
			resp.Body.Close()
		}
	}()
	return func() {
		t.Helper()
		wg.Wait()
		if err != nil || status != http.StatusOK {
			t.Fatalf("background job: status %d, %v", status, err)
		}
	}
}

// postQuick sends one job and fails the test, rather than hanging, when the
// job lands on a held stub.
func postQuick(t *testing.T, url string, spec service.MatrixSpec) service.Response {
	t.Helper()
	buf, _ := json.Marshal(service.Request{Matrix: spec})
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Post(url+"/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("job went to a held slot: %v", err)
	}
	return decodeResponse(t, resp)
}

func inFlight(rt *Router) []int64 {
	var out []int64
	for _, s := range rt.Stats().Slots {
		out = append(out, s.InFlight)
	}
	return out
}

// assertIdle waits briefly for every slot's in-flight count to reach 0: a
// client that hangs up ends its attempt only when the router notices.
func assertIdle(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		busy := false
		for _, n := range inFlight(rt) {
			busy = busy || n != 0
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight counts %v, want all 0", inFlight(rt))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterPickSpillsToSecondary: a job held on the primary makes the next
// job of the same operator go to the secondary, and /stats shows the held
// one as in flight.
func TestRouterPickSpillsToSecondary(t *testing.T) {
	g := newGate()
	held, heldHits := gateStub(t, g)
	ok, okHits := okStub(t)
	rt, srv := newTestRouter(t, fastSupervision(held, ok))
	t.Cleanup(g.open)
	spec := specWithPrimary(t, rt.ring, tinySpec, 0)

	wait := postAsync(t, srv.URL, spec)
	<-g.entered
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Slots []map[string]any `json:"slots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if raw.Slots[0]["in_flight"] != 1.0 || raw.Slots[1]["in_flight"] != 0.0 {
		t.Fatalf("/stats slots %v, want in_flight 1 on the primary and 0 on the secondary", raw.Slots)
	}

	out := postQuick(t, srv.URL, spec)
	if !out.Converged || *okHits != 1 || *heldHits != 1 {
		t.Fatalf("second job: converged=%v, secondary hits %d, primary hits %d; want it spilled to the secondary",
			out.Converged, *okHits, *heldHits)
	}
	g.open()
	wait()
	assertIdle(t, rt)
	if st := rt.Stats(); st.RoutedAround != 0 || st.Redispatches != 0 {
		t.Fatalf("a spill is neither a route-around nor a re-dispatch: %+v", st)
	}
}

// TestRouterSequentialStaysOnPrimary: a job's slot stops counting it before
// the client sees the reply, so back-to-back jobs never see their own
// predecessor in flight and all go to the primary.
func TestRouterSequentialStaysOnPrimary(t *testing.T) {
	a, aHits := okStub(t)
	b, bHits := okStub(t)
	_, srv := newTestRouter(t, fastSupervision(a, b))
	const jobs = 100
	for i := 0; i < jobs; i++ {
		postQuick(t, srv.URL, tinySpec)
	}
	if hi, lo := max(*aHits, *bHits), min(*aHits, *bHits); hi != jobs || lo != 0 {
		t.Fatalf("slot hits %d / %d, want all %d jobs on the primary", *aHits, *bHits, jobs)
	}
}

// TestRouterPickOnlyFirstTwo: with both candidates busy the job goes to the
// primary on a tie, and the idle third slot is never chosen.
func TestRouterPickOnlyFirstTwo(t *testing.T) {
	g := newGate()
	var backends []Backend
	var hits []*int64
	for i := 0; i < 3; i++ {
		b, h := gateStub(t, g)
		backends, hits = append(backends, b), append(hits, h)
	}
	rt, srv := newTestRouter(t, fastSupervision(backends...))
	t.Cleanup(g.open)
	order := rt.ring.order(tinySpec.Fingerprint())

	var waits []func()
	for i := 0; i < 3; i++ {
		waits = append(waits, postAsync(t, srv.URL, tinySpec))
		<-g.entered
	}
	got := inFlight(rt)
	if got[order[0]] != 2 || got[order[1]] != 1 || got[order[2]] != 0 || *hits[order[2]] != 0 {
		t.Fatalf("in flight %v over ring order %v, want 2 on the primary, 1 on the secondary, 0 on the third", got, order)
	}
	g.open()
	for _, w := range waits {
		w()
	}
	assertIdle(t, rt)
}

// TestRouterPickSkipsBeforeCounting: a saturated or unhealthy primary is not
// one of the two candidates; the secondary and the third are.
func TestRouterPickSkipsBeforeCounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		primary func(t *testing.T) *StaticBackend
	}{
		{"saturated", func(t *testing.T) *StaticBackend { b, _ := saturatedStub(t, "1"); return b }},
		{"unhealthy", func(t *testing.T) *StaticBackend {
			dead := httptest.NewServer(http.NotFoundHandler())
			dead.Close()
			return &StaticBackend{Base: dead.URL}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGate()
			held, _ := gateStub(t, g)
			ok, okHits := okStub(t)
			rt, srv := newTestRouter(t, fastSupervision(tc.primary(t), held, ok))
			t.Cleanup(g.open)
			spec := specWithOrder(t, rt.ring, tinySpec, 0, 1, 2)
			if tc.name == "unhealthy" {
				deadline := time.Now().Add(3 * time.Second)
				for rt.Stats().Slots[0].State == slotHealthy.String() {
					if time.Now().After(deadline) {
						t.Fatal("the dead primary never left the healthy state")
					}
					time.Sleep(5 * time.Millisecond)
				}
			}

			wait := postAsync(t, srv.URL, spec)
			<-g.entered
			out := postQuick(t, srv.URL, spec)
			if !out.Converged || *okHits != 1 {
				t.Fatalf("second job: converged=%v, third-slot hits %d; want the busy secondary passed over for the third",
					out.Converged, *okHits)
			}
			g.open()
			wait()
			assertIdle(t, rt)
			if st := rt.Stats(); st.Redispatches != 0 {
				t.Fatalf("redispatches %d, want 0", st.Redispatches)
			}
		})
	}
}

// oneFailureOneRedispatch reports whether a job failed once on slot 0 and
// was re-dispatched once, to slot 1.
func oneFailureOneRedispatch(st Stats) bool {
	return st.Redispatches == 1 && st.Slots[0].Dispatched == 1 && st.Slots[1].Dispatched == 1
}

// TestRouterInFlightReturnsToZero: whichever way an attempt ends, the slot
// it was dispatched to stops counting it.
//
// The reset and cut-body cases also pin where the re-dispatch goes. The
// failure kicks the supervisor, which probes the failed slot's /healthz —
// these stubs answer it — and re-admits the slot; under load that could
// land before the job picked again, so the job went back to the stub:
// Redispatches read 2 or 3, or the budget ran out and the client got a 502
// (about 1 run in 30 under -race with another package's tests on the
// host). A job now returns to a slot it failed on only when no other slot
// can take it, so each case is one failure and one re-dispatch.
func TestRouterInFlightReturnsToZero(t *testing.T) {
	run := func(t *testing.T, stream bool, backends ...Backend) (*Router, string) {
		t.Helper()
		rt, srv := newTestRouter(t, fastSupervision(backends...))
		spec := specWithPrimary(t, rt.ring, tinySpec, 0)
		buf, _ := json.Marshal(service.Request{Matrix: spec})
		url := srv.URL + "/solve"
		if stream {
			url += "?stream=1"
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		assertIdle(t, rt)
		return rt, string(body)
	}
	t.Run("success", func(t *testing.T) {
		ok, _ := okStub(t)
		run(t, false, ok)
	})
	t.Run("429 route-around", func(t *testing.T) {
		sat, _ := saturatedStub(t, "1")
		ok, _ := okStub(t)
		if rt, _ := run(t, false, sat, ok); rt.Stats().RoutedAround != 1 {
			t.Fatal("the primary's 429 was not routed around")
		}
	})
	t.Run("connection reset", func(t *testing.T) {
		reset, _ := resetStub(t)
		ok, _ := okStub(t)
		if rt, _ := run(t, false, reset, ok); !oneFailureOneRedispatch(rt.Stats()) {
			t.Fatalf("stats %+v: want one dispatch to each slot and one re-dispatch", rt.Stats())
		}
	})
	t.Run("body cut short", func(t *testing.T) {
		cut, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			_, _ = io.WriteString(w, `{"converged":`)
			panic(http.ErrAbortHandler)
		})
		ok, _ := okStub(t)
		if rt, _ := run(t, false, cut, ok); !oneFailureOneRedispatch(rt.Stats()) {
			t.Fatalf("stats %+v: want one dispatch to each slot and one re-dispatch", rt.Stats())
		}
	})
	t.Run("stream success", func(t *testing.T) {
		st, _ := streamStub(t, okLine)
		if _, body := run(t, true, st); !strings.HasSuffix(body, okLine+"\n") {
			t.Fatalf("stream body %q, want it to end in the result line", body)
		}
	})
	t.Run("stream queue-full", func(t *testing.T) {
		full, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, `{"event":"error","error":"service: queue full"}`+"\n")
		})
		st, _ := streamStub(t, okLine)
		if rt, _ := run(t, true, full, st); rt.Stats().RoutedAround != 1 {
			t.Fatal("the queue-full line was not routed around")
		}
	})
	t.Run("client gone", func(t *testing.T) {
		g := newGate()
		held, _ := gateStub(t, g)
		rt, srv := newTestRouter(t, fastSupervision(held))
		t.Cleanup(g.open)
		ctx, cancel := context.WithCancel(context.Background())
		buf, _ := json.Marshal(service.Request{Matrix: tinySpec})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/solve", bytes.NewReader(buf))
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		<-g.entered
		if got := inFlight(rt); got[0] != 1 {
			t.Fatalf("in flight %v while the job is held, want 1", got)
		}
		cancel()
		<-done
		assertIdle(t, rt)
	})
}

// TestRouterStreamOverloadIsExact: a first error line that only mentions
// "queue full" is the backend's answer, relayed, not saturation.
func TestRouterStreamOverloadIsExact(t *testing.T) {
	const line = `{"event":"error","error":"solver: preconditioner queue full of NaNs"}`
	odd, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, line+"\n")
	})
	st, stHits := streamStub(t, okLine)
	rt, srv := newTestRouter(t, fastSupervision(odd, st))
	spec := specWithPrimary(t, rt.ring, tinySpec, 0)
	buf, _ := json.Marshal(service.Request{Matrix: spec})
	resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if resp.StatusCode != http.StatusOK || len(lines) != 1 || lines[0] != line {
		t.Fatalf("status %d, lines %q; want the error line relayed verbatim", resp.StatusCode, lines)
	}
	if s := rt.Stats(); s.RoutedAround != 0 || *stHits != 0 {
		t.Fatalf("routed_around %d, secondary hits %d; want 0 and 0", s.RoutedAround, *stHits)
	}
}
