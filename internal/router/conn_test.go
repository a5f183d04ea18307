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
// pool, so no later round dials; the default transport kept two and
// re-dialed six a round.
//
// Round one holds every job in the backend until all eight have arrived, so
// it dials exactly eight connections. Without that, a loaded host (the
// whole internal/ suite running beside it) let the first round's jobs
// reach the router staggered and share fewer connections, and the next
// round then dialed again: net/http starts a dial for every request that
// finds no idle connection, and when another job's connection comes back
// first the request takes that one while its dial still completes and
// parks a ninth, unused connection in the pool. The backend saw no
// connection close in any of those runs, so neither a keep-alive close
// nor the transport's bounded wait for the request write was the cause.
func TestRouterReusesUpstreamConnections(t *testing.T) {
	const concurrent, rounds = 8, 10
	var dials, arrived atomic.Int64
	allIn := make(chan struct{})
	stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := arrived.Add(1); {
		case n == concurrent:
			close(allIn)
		case n < concurrent:
			select {
			case <-allIn:
			case <-time.After(10 * time.Second):
				t.Errorf("the router never had %d jobs in flight at once", concurrent)
			}
		}
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

	var warm int64
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
		if round == 0 {
			warm = dials.Load()
		}
	}
	if got := dials.Load(); got > concurrent || got != warm {
		t.Fatalf("backend saw %d new connections in the first round and %d over all %d rounds of %d concurrent jobs, want at most %d, all in the first",
			warm, got, rounds, concurrent, concurrent)
	}
}
