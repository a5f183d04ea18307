package router

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newsum/internal/service"
)

// TestRouterReusesUpstreamConnections: eight concurrent jobs, ten rounds,
// one backend. Every round's eight connections go back to the router's idle
// pool, so the next round dials none; the default transport kept two and
// re-dialed six a round.
func TestRouterReusesUpstreamConnections(t *testing.T) {
	var dials atomic.Int64
	stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.Response{Converged: true, N: 144})
	}))
	stub.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	stub.Start()
	t.Cleanup(stub.Close)
	// No probe runs within the test: every connection counted is a job's.
	_, srv := newTestRouter(t, Config{Backends: []Backend{&StaticBackend{Base: stub.URL}}, HealthInterval: time.Hour})

	const concurrent, rounds = 8, 10
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, concurrent)
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/solve", "application/json",
					strings.NewReader(`{"matrix":{"kind":"laplace2d","n":12}}`))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := dials.Load(); got > concurrent {
		t.Fatalf("backend saw %d new connections for %d rounds of %d concurrent jobs, want at most %d",
			got, rounds, concurrent, concurrent)
	}
}
