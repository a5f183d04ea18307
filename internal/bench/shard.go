package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"newsum/internal/router"
	"newsum/internal/service"
)

// The load behind the root suite's BenchmarkServeShard: the same
// closed-loop protected-solve jobs offered to a consistent-hash router over
// K backends and to one single process holding the identical total worker
// budget (K×W workers, one shared encoding cache and admission queue), both
// over real HTTP. The benchmark owns the clock; what this file reports is
// the pair of counters a sharded fleet must keep at zero like a single
// process does. The router hop itself is timed by benchmark/'s router_tiny
// workload (router.hop_ms_p50 and the other router.* rungs).

// ShardPoint is what one fleet shape did with its jobs.
type ShardPoint struct {
	Jobs int
	// SDCSuspects and FailedJobs are summed across the fleet and must be
	// zero.
	SDCSuspects int64
	FailedJobs  int64
}

// shardSpecs is the operator pool for the shard load: enough distinct
// fingerprints that the ring has something to spread.
func shardSpecs() []service.MatrixSpec {
	return []service.MatrixSpec{
		{Kind: "laplace2d", N: 12},
		{Kind: "laplace2d", N: 16},
		{Kind: "laplace2d", N: 20},
		{Kind: "spd", N: 300, Degree: 4, Seed: 7},
		{Kind: "circuit", N: 300, Seed: 11},
		{Kind: "circuit", N: 256, Seed: 13},
	}
}

func shardBackendConfig(workers int) service.Config {
	return service.Config{Workers: workers, QueueDepth: 64, CacheSize: 16, KernelWorkers: -1}
}

// MeasureShardPoint drives jobs protected solves from clients closed-loop
// HTTP clients at a fleet of the given shape (backends = 1 is the
// single-process control, no router in front) and reports the aggregate.
func MeasureShardPoint(backends, workers, clients, jobs int, seed int64) (ShardPoint, error) {
	p := ShardPoint{Jobs: jobs}

	if backends > 1 {
		var fleet []*router.LocalBackend
		cfgs := make([]router.Backend, backends)
		for i := range cfgs {
			lb := &router.LocalBackend{Cfg: shardBackendConfig(workers)}
			fleet = append(fleet, lb)
			cfgs[i] = lb
		}
		rt, err := router.New(router.Config{Backends: cfgs})
		if err != nil {
			return p, err
		}
		defer func() {
			_ = rt.Close() //lint:ignore errdrop bench teardown: backend stop errors cannot affect the measured point
		}()
		srv := httptest.NewServer(rt.Handler())
		defer srv.Close()
		if err := driveShardLoad(srv.URL, clients, jobs, seed); err != nil {
			return p, err
		}
		for _, lb := range fleet {
			if svc := lb.Service(); svc != nil {
				snap := svc.Stats()
				p.SDCSuspects += snap.SDCSuspects
				p.FailedJobs += snap.Failed
			}
		}
	} else {
		svc := service.New(shardBackendConfig(backends * workers))
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		if err := driveShardLoad(srv.URL, clients, jobs, seed); err != nil {
			return p, err
		}
		snap := svc.Stats()
		p.SDCSuspects, p.FailedJobs = snap.SDCSuspects, snap.Failed
	}
	return p, nil
}

// driveShardLoad offers jobs solves from clients closed-loop HTTP clients,
// honoring 429 backpressure by waiting and re-offering the same job.
func driveShardLoad(url string, clients, jobs int, seed int64) error {
	specs := shardSpecs()
	work := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := service.Request{
					Matrix:      specs[i%len(specs)],
					ChaosFaults: 1,
					Seed:        seed + int64(i),
				}
				buf, err := json.Marshal(req)
				if err != nil {
					fail(err)
					continue
				}
				for {
					resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(buf))
					if err != nil {
						fail(fmt.Errorf("bench: shard job %d: %w", i, err))
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) //lint:ignore errdrop a missing or garbled header falls back to the 1-tick floor below
						_, _ = io.Copy(io.Discard, resp.Body)                   //lint:ignore errdrop draining a rejected response; the retry is the recovery
						resp.Body.Close()
						if secs < 1 {
							secs = 1
						}
						// Closed-loop client: honor the hint (capped well
						// below the header's scale to keep the bench moving)
						// and offer the same job again.
						time.Sleep(time.Duration(secs) * time.Millisecond)
						continue
					}
					var out service.Response
					err = json.NewDecoder(resp.Body).Decode(&out)
					_ = resp.Body.Close() //lint:ignore errdrop body already decoded; a close failure cannot change the outcome
					if resp.StatusCode != http.StatusOK {
						fail(fmt.Errorf("bench: shard job %d: status %d", i, resp.StatusCode))
					} else if err != nil {
						fail(fmt.Errorf("bench: shard job %d: decode: %w", i, err))
					} else if !out.Converged {
						fail(fmt.Errorf("bench: shard job %d did not converge", i))
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
	return firstErr
}
