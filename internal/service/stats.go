package service

import (
	"sort"
	"sync"
)

// latRingCap bounds the latency sample ring; quantiles are computed over
// the most recent latRingCap completed jobs.
const latRingCap = 4096

// stats aggregates service-level counters. All fields are guarded by mu;
// the snapshot copies out under the lock so /stats never observes a torn
// update even with 64 workers hammering the counters under -race.
type stats struct {
	mu sync.Mutex

	accepted  int64
	rejected  int64
	completed int64
	failed    int64
	canceled  int64

	attempts    int64
	retries     int64
	sdcSuspects int64

	cacheHits          int64
	cacheMisses        int64
	cacheCollisions    int64
	admissionFailures  int64
	eventsDropped      int64
	detections         int64
	corrections        int64
	rollbacks          int64
	injectedFaults     int64
	verifiedResiduals  int64
	forwardRepairs     int64
	rollbacksAvoided   int64
	iterationsSaved    int64
	rejectedRepairs    int64
	forwardRecovered   int64
	solveMillisSamples [latRingCap]float64
	sampleNext         int
	sampleCount        int
}

// Snapshot is the JSON shape served at /stats.
type Snapshot struct {
	// Admission and lifecycle.
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	InFlight  int64 `json:"in_flight"`

	// Retry machinery.
	Attempts    int64 `json:"attempts"`
	Retries     int64 `json:"retries"`
	SDCSuspects int64 `json:"sdc_suspects"`

	// Encoding cache.
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheCollisions   int64 `json:"cache_collisions"`
	CacheEntries      int   `json:"cache_entries"`
	AdmissionFailures int64 `json:"admission_failures"`

	// Fault tolerance, summed over all completed attempts.
	Detections     int64 `json:"detections"`
	Corrections    int64 `json:"corrections"`
	Rollbacks      int64 `json:"rollbacks"`
	InjectedFaults int64 `json:"injected_faults"`
	// VerifiedResiduals counts server-side end-to-end residual checks.
	VerifiedResiduals int64 `json:"verified_residuals"`
	// Forward recovery: in-place repairs, rollbacks avoided, iterations
	// those avoided rollbacks would have discarded, corrections undone by
	// their confirmation, and jobs that completed on the forward path.
	ForwardRepairs      int64 `json:"forward_repairs"`
	RollbacksAvoided    int64 `json:"rollbacks_avoided"`
	IterationsSaved     int64 `json:"iterations_saved"`
	RejectedCorrections int64 `json:"rejected_corrections"`
	ForwardRecovered    int64 `json:"forward_recovered"`

	// Streaming.
	EventsDropped int64 `json:"events_dropped"`

	// Latency over the most recent completed jobs (milliseconds).
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`
	LatencySamples   int     `json:"latency_samples"`

	// Static configuration, for dashboards.
	Workers       int `json:"workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueLen      int `json:"queue_len"`
	KernelWorkers int `json:"kernel_workers"`
}

func (s *stats) add(f func(*stats)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// recordSolve folds one finished job's outcome into the counters.
func (s *stats) recordSolve(resp *Response, solveMillis float64) {
	s.mu.Lock()
	s.attempts += int64(resp.Attempts)
	s.retries += int64(len(resp.Retried))
	s.detections += int64(resp.Detections)
	s.corrections += int64(resp.Corrections)
	s.rollbacks += int64(resp.Rollbacks)
	s.injectedFaults += int64(resp.InjectedFaults)
	s.forwardRepairs += int64(resp.ForwardRepairs)
	s.rollbacksAvoided += int64(resp.RollbacksAvoided)
	s.iterationsSaved += int64(resp.IterationsSaved)
	s.rejectedRepairs += int64(resp.RejectedCorrections)
	s.solveMillisSamples[s.sampleNext] = solveMillis
	s.sampleNext = (s.sampleNext + 1) % latRingCap
	if s.sampleCount < latRingCap {
		s.sampleCount++
	}
	s.mu.Unlock()
}

// meanSolveMillis returns the mean service time over the sample ring, or
// 0 before any job has completed. The backpressure Retry-After derivation
// uses it as the per-job drain estimate.
func (s *stats) meanSolveMillis() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampleCount == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.solveMillisSamples[:s.sampleCount] {
		sum += v
	}
	return sum / float64(s.sampleCount)
}

// quantile returns the q-quantile (0..1) of sorted, by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// snapshot copies the counters out under the lock and computes latency
// quantiles over the sample ring.
func (s *stats) snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		Accepted:          s.accepted,
		Rejected:          s.rejected,
		Completed:         s.completed,
		Failed:            s.failed,
		Canceled:          s.canceled,
		Attempts:          s.attempts,
		Retries:           s.retries,
		SDCSuspects:       s.sdcSuspects,
		CacheHits:         s.cacheHits,
		CacheMisses:       s.cacheMisses,
		CacheCollisions:   s.cacheCollisions,
		AdmissionFailures: s.admissionFailures,
		Detections:        s.detections,
		Corrections:       s.corrections,
		Rollbacks:         s.rollbacks,
		InjectedFaults:    s.injectedFaults,
		VerifiedResiduals: s.verifiedResiduals,
		EventsDropped:     s.eventsDropped,
		LatencySamples:    s.sampleCount,

		ForwardRepairs:      s.forwardRepairs,
		RollbacksAvoided:    s.rollbacksAvoided,
		IterationsSaved:     s.iterationsSaved,
		RejectedCorrections: s.rejectedRepairs,
		ForwardRecovered:    s.forwardRecovered,
	}
	samples := make([]float64, s.sampleCount)
	copy(samples, s.solveMillisSamples[:s.sampleCount])
	s.mu.Unlock()

	sort.Float64s(samples)
	snap.LatencyP50Millis = quantile(samples, 0.50)
	snap.LatencyP99Millis = quantile(samples, 0.99)
	return snap
}
