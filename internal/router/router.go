package router

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Slot supervision state machine (docs/sharding.md):
//
//	healthy --probe fail / proxy-reported failure--> suspect
//	suspect --immediate re-probe ok--> healthy
//	suspect --re-probe fail--> dead
//	dead    --Stop+Start ok (exponential backoff)--> warming
//	dead    --Start fail--> dead (backoff doubles)
//	warming --healthz ok--> healthy (backoff resets)
//	warming --no healthz within the warmup budget--> dead
//
// The suspect hop separates a dropped probe from a dead process: one
// transient failure costs one immediate re-probe, not a restart. Restarts
// are the whole-process analogue of the solver's checkpoint rollback —
// and, like rollback storms, they are bounded: the backoff doubles on
// every failed incarnation so a crash-looping backend cannot hog the
// supervisor.
//
// A probe that times out while the proxy receives a reply from the same
// slot counts as ok: a CPU-starved backend can miss its /healthz deadline
// while still answering jobs, and restarting it would kill every solve it
// holds. A refused or reset probe gets no such grace, so a dead process
// (the proxy-reported failure included) still goes to dead.
type slotState int32

const (
	slotHealthy slotState = iota
	slotSuspect
	slotDead
	slotWarming
)

func (s slotState) String() string {
	switch s {
	case slotHealthy:
		return "healthy"
	case slotSuspect:
		return "suspect"
	case slotDead:
		return "dead"
	case slotWarming:
		return "warming"
	}
	return "unknown"
}

// Config sizes the router. Zero values select the defaults noted.
type Config struct {
	// Backends are the supervised slots; at least one is required. The
	// slot order is the ring identity — keep it stable across restarts so
	// fingerprints keep their primary.
	Backends []Backend
	// VNodes is the virtual-node count per slot (default 64).
	VNodes int
	// RetryBudget bounds re-dispatches per job after backend failures
	// (default 3). Saturation route-arounds do not consume it.
	RetryBudget int
	// HealthInterval is the probe cadence (default 250ms).
	HealthInterval time.Duration
	// HealthTimeout caps one probe (default 1s).
	HealthTimeout time.Duration
	// RestartBackoff is the initial delay between restart attempts of a
	// dead slot, doubling up to RestartBackoffMax (defaults 50ms, 2s).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// WarmupBudget bounds how long a restarted slot may stay warming
	// before it is declared dead again (default 5s).
	WarmupBudget time.Duration
	// DispatchWait bounds how long a job waits for any healthy slot
	// before failing with 503 (default 10s).
	DispatchWait time.Duration
}

func (c Config) normalized() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 50 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 2 * time.Second
	}
	if c.WarmupBudget <= 0 {
		c.WarmupBudget = 5 * time.Second
	}
	if c.DispatchWait <= 0 {
		c.DispatchWait = 10 * time.Second
	}
	return c
}

// slot is one supervised backend with its routing state.
type slot struct {
	idx     int
	backend Backend

	mu          sync.Mutex
	state       slotState
	url         string
	backoff     time.Duration
	lastRestart time.Time
	warmSince   time.Time
	restarts    int64
	dispatched  int64
	failures    int64

	// inFlight counts the jobs dispatched here and not yet finished; the
	// pick reads it without the lock.
	inFlight atomic.Int64
	// lastReply is when (Unix ns) the proxy last received a response from
	// this slot; attempt stores it without the lock.
	lastReply atomic.Int64
}

func (s *slot) snapshotLocked() SlotStatus {
	return SlotStatus{
		Slot:       s.idx,
		URL:        s.url,
		State:      s.state.String(),
		Restarts:   s.restarts,
		Dispatched: s.dispatched,
		Failures:   s.failures,
		InFlight:   s.inFlight.Load(),
	}
}

// healthyURL returns the slot's URL when it is dispatchable.
func (s *slot) healthyURL() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != slotHealthy {
		return "", false
	}
	return s.url, true
}

// Router is the sharded front tier; see the package comment.
type Router struct {
	cfg    Config
	ring   *ring
	slots  []*slot
	client *http.Client
	probes *http.Client

	kick chan int
	stop chan struct{}
	wg   sync.WaitGroup

	statsMu sync.Mutex
	st      routerCounters
}

type routerCounters struct {
	jobs         int64
	redispatches int64
	routedAround int64
	saturated    int64
	noBackend    int64
}

// SlotStatus is one slot's row in the router's /stats.
type SlotStatus struct {
	Slot       int    `json:"slot"`
	URL        string `json:"url"`
	State      string `json:"state"`
	Restarts   int64  `json:"restarts"`
	Dispatched int64  `json:"dispatched"`
	Failures   int64  `json:"failures"`
	InFlight   int64  `json:"in_flight"`
}

// Stats is the router's /stats JSON shape.
type Stats struct {
	// Jobs counts dispatch attempts admitted by the router; Redispatches
	// counts re-sends after a backend failed mid-job; RoutedAround counts
	// saturated backends skipped without consuming retry budget;
	// Saturated429 counts jobs surfaced to the client as 429 because every
	// live replica was saturated; NoBackend counts jobs failed for want of
	// any healthy slot.
	Jobs         int64        `json:"jobs"`
	Redispatches int64        `json:"redispatches"`
	RoutedAround int64        `json:"routed_around"`
	Saturated429 int64        `json:"saturated_429"`
	NoBackend    int64        `json:"no_backend"`
	Slots        []SlotStatus `json:"slots"`
}

// upstreamIdlePerHost is how many idle connections the router keeps to each
// backend. Go's default transport keeps two: with more than two jobs in
// flight on one backend, most connections would close after their job and
// the next jobs would dial new ones. 64 is above the jobs a backend of any
// worker count here holds at once, at the price of one idle socket each.
const upstreamIdlePerHost = 64

// New starts every backend and the supervisor. Backends that fail to start
// enter the dead state and are retried on the supervision cadence rather
// than failing construction — a router over a partially dead fleet still
// serves from the live part.
func New(cfg Config) (*Router, error) {
	cfg = cfg.normalized()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend required")
	}
	upstream := http.DefaultTransport.(*http.Transport).Clone()
	upstream.MaxIdleConns = 0 // no fleet-wide cap: the per-backend one bounds it
	upstream.MaxIdleConnsPerHost = upstreamIdlePerHost
	rt := &Router{
		cfg:    cfg,
		ring:   newRing(len(cfg.Backends), cfg.VNodes),
		client: &http.Client{Transport: upstream},
		probes: &http.Client{Timeout: cfg.HealthTimeout},
		kick:   make(chan int, len(cfg.Backends)),
		stop:   make(chan struct{}),
	}
	for i, b := range cfg.Backends {
		s := &slot{idx: i, backend: b, backoff: cfg.RestartBackoff}
		if url, err := b.Start(); err == nil {
			s.url, s.state = url, slotHealthy
		} else {
			s.state = slotDead
		}
		rt.slots = append(rt.slots, s)
	}
	rt.wg.Add(1)
	go rt.supervise()
	return rt, nil
}

// Close stops supervision and every backend.
func (rt *Router) Close() error {
	close(rt.stop)
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
	var first error
	for _, s := range rt.slots {
		if err := s.backend.Stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the router and per-slot counters.
func (rt *Router) Stats() Stats {
	rt.statsMu.Lock()
	st := Stats{
		Jobs:         rt.st.jobs,
		Redispatches: rt.st.redispatches,
		RoutedAround: rt.st.routedAround,
		Saturated429: rt.st.saturated,
		NoBackend:    rt.st.noBackend,
	}
	rt.statsMu.Unlock()
	for _, s := range rt.slots {
		s.mu.Lock()
		st.Slots = append(st.Slots, s.snapshotLocked())
		s.mu.Unlock()
	}
	return st
}

func (rt *Router) count(f func(*routerCounters)) {
	rt.statsMu.Lock()
	f(&rt.st)
	rt.statsMu.Unlock()
}

// noteFailure records a proxy-observed backend failure and wakes the
// supervisor: the slot leaves the dispatchable state immediately instead
// of waiting out the probe cadence with jobs still hashing onto it.
func (rt *Router) noteFailure(idx int) {
	s := rt.slots[idx]
	s.mu.Lock()
	s.failures++
	if s.state == slotHealthy {
		s.state = slotSuspect
	}
	s.mu.Unlock()
	select {
	case rt.kick <- idx:
	default: // a wakeup is already pending; the supervisor sweeps all slots anyway
	}
}

// supervise is the supervision loop: a periodic sweep of every slot plus
// immediate attention to slots the proxy reports.
func (rt *Router) supervise() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case idx := <-rt.kick:
			rt.checkSlot(rt.slots[idx])
		case <-tick.C:
			for _, s := range rt.slots {
				select {
				case <-rt.stop:
					return
				default:
				}
				rt.checkSlot(s)
			}
		}
	}
}

// probe asks one incarnation whether it is accepting work.
func (rt *Router) probe(url string) bool {
	if url == "" {
		return false
	}
	resp, err := rt.probes.Get(url + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close() //lint:ignore errdrop liveness probe: the status code is the verdict; the body is empty
	return resp.StatusCode == http.StatusOK
}

// alive asks whether the slot's incarnation is up: its /healthz answered,
// or the proxy received a reply from it while the probe waited.
func (rt *Router) alive(s *slot, url string) bool {
	start := time.Now().UnixNano()
	return rt.probe(url) || s.lastReply.Load() >= start
}

// checkSlot advances one slot through the supervision state machine.
func (rt *Router) checkSlot(s *slot) {
	s.mu.Lock()
	state, url := s.state, s.url
	s.mu.Unlock()

	switch state {
	case slotHealthy, slotSuspect:
		if rt.alive(s, url) {
			rt.setState(s, slotHealthy)
			return
		}
		if state == slotHealthy {
			// One transient failure: suspect, and re-probe once before
			// declaring the process dead.
			rt.setState(s, slotSuspect)
			if rt.alive(s, url) {
				rt.setState(s, slotHealthy)
				return
			}
		}
		rt.setState(s, slotDead)
		rt.tryRestart(s)
	case slotDead:
		rt.tryRestart(s)
	case slotWarming:
		if rt.probe(url) {
			s.mu.Lock()
			s.state = slotHealthy
			s.backoff = rt.cfg.RestartBackoff
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		expired := time.Since(s.warmSince) > rt.cfg.WarmupBudget
		if expired {
			s.state = slotDead
		}
		s.mu.Unlock()
	}
}

func (rt *Router) setState(s *slot, st slotState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// tryRestart restarts a dead slot's backend, honoring the backoff.
func (rt *Router) tryRestart(s *slot) {
	s.mu.Lock()
	if s.state != slotDead || time.Since(s.lastRestart) < s.backoff {
		s.mu.Unlock()
		return
	}
	s.lastRestart = time.Now()
	s.mu.Unlock()

	// Stop+Start outside the slot lock: a slow backend must not block
	// /stats or the dispatch path's state reads.
	_ = s.backend.Stop() //lint:ignore errdrop stopping an already-dead process is expected to fail; the restart below is what matters
	url, err := s.backend.Start()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.backoff *= 2
		if s.backoff > rt.cfg.RestartBackoffMax {
			s.backoff = rt.cfg.RestartBackoffMax
		}
		return
	}
	s.url = url
	s.state = slotWarming
	s.warmSince = time.Now()
	s.restarts++
}
