// Serve: the concurrent fault-tolerant solve service end to end — an
// in-process HTTP server (the same handler cmd/newsum-serve exposes) under
// a burst of concurrent clients submitting fault-injected jobs. The run
// shows the service-layer guarantees on top of the ABFT engines: every
// returned solution re-verified against the operator, first-attempt aborts
// retried to convergence, repeated operators served from the encoding
// cache, and the /stats counters accounting for all of it.
//
// Run: go run ./examples/serve [-clients 16] [-jobs 48] [-n 24]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"newsum/internal/service"
)

// newServiceHandler builds the same service + handler stack
// cmd/newsum-serve runs, sized for the example's burst.
func newServiceHandler() http.Handler {
	return service.New(service.Config{Workers: 8, QueueDepth: 32, CacheSize: 8}).Handler()
}

// request/response mirror the service JSON schema (see docs/service.md);
// the example talks to the server the way an external client would, over
// the wire, rather than importing internal/service types.
type request struct {
	Solver       string      `json:"solver,omitempty"`
	Scheme       string      `json:"scheme,omitempty"`
	Matrix       matrixSpec  `json:"matrix"`
	MaxRollbacks int         `json:"max_rollbacks,omitempty"`
	Faults       []faultSpec `json:"faults,omitempty"`
	ChaosFaults  int         `json:"chaos_faults,omitempty"`
	Seed         int64       `json:"seed,omitempty"`
}

type matrixSpec struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

type faultSpec struct {
	Iteration int `json:"iteration"`
	Index     int `json:"index"`
}

type response struct {
	JobID            string   `json:"job_id"`
	Converged        bool     `json:"converged"`
	Iterations       int      `json:"iterations"`
	VerifiedResidual float64  `json:"verified_residual"`
	Attempts         int      `json:"attempts"`
	Retried          []string `json:"retried"`
	CacheHit         bool     `json:"cache_hit"`
	Detections       int      `json:"detections"`
	InjectedFaults   int      `json:"injected_faults"`
}

type snapshot struct {
	Completed        int64   `json:"completed"`
	Retries          int64   `json:"retries"`
	CacheHits        int64   `json:"cache_hits"`
	Detections       int64   `json:"detections"`
	InjectedFaults   int64   `json:"injected_faults"`
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`
}

func main() {
	clients := flag.Int("clients", 16, "concurrent clients")
	jobs := flag.Int("jobs", 48, "total jobs submitted")
	n := flag.Int("n", 24, "grid side of the Laplacian operators (n² unknowns)")
	flag.Parse()

	srv := httptest.NewServer(newServiceHandler())
	defer srv.Close()
	fmt.Printf("solve service up at %s: %d clients × %d jobs, faults active\n",
		srv.URL, *clients, *jobs)

	work := make(chan request)
	results := make(chan response)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				results <- postSolve(srv.URL, req)
			}
		}()
	}

	start := time.Now()
	go func() {
		for i := 0; i < *jobs; i++ {
			req := request{
				Matrix:      matrixSpec{Kind: "laplace2d", N: *n + 4*(i%3)},
				ChaosFaults: 2,
				Seed:        int64(100 + i),
			}
			switch i % 4 {
			case 1:
				req.Scheme = "twolevel"
			case 2:
				req.Solver = "bicgstab"
			case 3:
				// Engineered first-attempt abort: two strikes against a
				// rollback budget of one force the service's retry path.
				req.ChaosFaults = 0
				req.MaxRollbacks = 1
				req.Faults = []faultSpec{{Iteration: 2, Index: -1}, {Iteration: 12, Index: -1}}
			}
			work <- req
		}
		close(work)
		wg.Wait()
		close(results)
	}()

	var done, retried, hits, injected int
	for r := range results {
		if !r.Converged {
			log.Fatalf("%s did not converge", r.JobID)
		}
		if r.VerifiedResidual > 1e-3 {
			log.Fatalf("%s: verified residual %.3e — silent corruption", r.JobID, r.VerifiedResidual)
		}
		done++
		retried += len(r.Retried)
		injected += r.InjectedFaults
		if r.CacheHit {
			hits++
		}
	}
	fmt.Printf("%d jobs in %v: %d cache hits, %d faults injected, %d retries, zero SDC\n",
		done, time.Since(start).Round(time.Millisecond), hits, injected, retried)

	snap := fetchStats(srv.URL)
	fmt.Printf("service stats: completed=%d detections=%d retries=%d cache_hits=%d p50=%.1fms p99=%.1fms\n",
		snap.Completed, snap.Detections, snap.Retries, snap.CacheHits,
		snap.LatencyP50Millis, snap.LatencyP99Millis)
}

func postSolve(base string, req request) response {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	for {
		resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatalf("post: %v", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Honor the service's backpressure and resubmit.
			_ = resp.Body.Close() //lint:ignore errdrop response already consumed; close error is uninteresting
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e) //lint:ignore errdrop best-effort diagnostics on the fatal path
			log.Fatalf("solve: HTTP %d: %s", resp.StatusCode, e.Error)
		}
		var out response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatalf("decode: %v", err)
		}
		_ = resp.Body.Close() //lint:ignore errdrop response already consumed; close error is uninteresting
		return out
	}
}

func fetchStats(base string) snapshot {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	//lint:ignore errdrop response already consumed; close error is uninteresting
	defer resp.Body.Close()
	var snap snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatalf("decode stats: %v", err)
	}
	return snap
}
