package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// traffic is a job mix. Every client draws from it with its own seeded
// stream, so the same seed offers the same jobs in the same per-client order.
type traffic struct {
	// hot jobs name operators that stay in the encoding cache.
	hot []Request
	// cold returns the k-th cold job, one whose operator is unlikely to be
	// cached; nil when the mix has none.
	cold func(k int) Request
	// coldShare and chaosShare are the shares of all jobs that are cold,
	// and that are hot with one chaos fault.
	coldShare, chaosShare float64
	seed                  int64
	// yardProducts sizes the yardstick job: every yardEvery-th request of
	// a client goes to a handler of the benchmark's own that decodes the
	// job like the service and runs this many CSR products on the first
	// hot operator, about the arithmetic of one hot solve. 0 sends none.
	yardProducts int
}

// missJob is the job the cache-miss rung derives an encoding for: the mix's
// own cold job where it has one, its first hot job otherwise.
func (t *traffic) missJob(k int) Request {
	if t.cold != nil {
		return t.cold(k)
	}
	return t.hot[0]
}

// draw picks client rng's next job and the arm it is timed under.
func (t *traffic) draw(rng *rand.Rand) (Request, int) {
	u := rng.Float64()
	switch {
	case t.cold != nil && u < t.coldShare:
		return t.cold(rng.Intn(coldPool)), armMain
	case u < t.coldShare+t.chaosShare:
		req := t.hot[rng.Intn(len(t.hot))]
		req.ChaosFaults, req.Seed = 1, rng.Int63()
		return req, armAlt
	}
	return t.hot[rng.Intn(len(t.hot))], armBase
}

// residualLimit is the largest verified residual a job may return. A clean
// job must meet 10·tol. A job with a chaos fault must meet what the service
// promises under faults, its own SDC guard of 1e5·tol: about one chaos
// strike in five lands in a low enough bit to pass every checksum, and the
// solve then converges on its recurrence while the true residual stays
// between 1e-6 and 1e-3. The service accepts those; so does the benchmark,
// and it counts them as service.loose_results.
func residualLimit(req Request) float64 {
	if req.ChaosFaults > 0 {
		return 1e5 * solveTol
	}
	return 10 * solveTol
}

const (
	// coldPool is how many distinct cold operators a mix draws from; the
	// service caches 16, so most cold jobs miss.
	coldPool = 64
	// checkEvery is how often a client asks for the solution back and the
	// benchmark checks it against its own copy of the operator. Every job's
	// server-side verified residual is checked as well.
	checkEvery = 32
	// minRoundSamples is the fewest jobs of an arm in a round for that
	// round's midmean to count.
	minRoundSamples = 5
	// yardEvery is how often a client sends the yardstick job.
	yardEvery = 8
	// maxOffers is how often a client offers a job that is refused with
	// 429 before it counts the job as failed.
	maxOffers = 1000
)

// sample is one job as its client saw it.
type sample struct {
	arm, round       int
	start            time.Time
	ms               float64
	queueMs, solveMs float64
	// ok is false for a job that failed, with why; loose marks a job the
	// service accepted with a verified residual above 10·solveTol.
	ok, loose bool
	why       string
}

// trafficInstance is a service workload: closed-loop clients, each sending
// its next job when the previous one has returned, against one service
// (mixed) or alternately against one service and a router over as many
// one-worker backends as the service has workers (paired).
type trafficInstance struct {
	mix     *traffic
	paired  bool
	clients int
	direct  *endpoint
	routed  *endpoint
	yard    *endpoint // the yardstick handler; nil when the mix sends none
	client  *http.Client
	// sliceDur is how long the clients stay on one target (paired: 0.25 s)
	// or the width of one round's window (mixed: 1 s); measure shortens it
	// for a phase too short to hold two rounds of that.
	sliceDur time.Duration
	// phase holds what the service tier [0] and the router tier [1]
	// counted during the last measure, and phaseArmSeconds how long the
	// clients spent on each arm's target.
	phase           [2]tierStats
	phaseArmSeconds [numArms]float64
}

// newTrafficInstance starts the tiers and warms every hot operator on every
// path, so that the timed phase starts with the caches as a long-running
// deployment has them.
func newTrafficInstance(mix *traffic, paired bool, clients int) (*trafficInstance, error) {
	ti := &trafficInstance{mix: mix, paired: paired, clients: clients,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	var err error
	if ti.direct, err = startService(clients); err != nil {
		return nil, err
	}
	if paired {
		if ti.routed, err = startRouter(clients); err != nil {
			return nil, closeAfter(ti, err)
		}
	}
	if mix.yardProducts > 0 {
		a, err := buildSpec(mix.hot[0].Matrix)
		if err != nil {
			return nil, closeAfter(ti, err)
		}
		ti.yard = &endpoint{}
		if err := serve(ti.yard, yardstick(a, mix.yardProducts)); err != nil {
			ti.yard = nil
			return nil, closeAfter(ti, err)
		}
	}
	for _, req := range mix.hot {
		for arm := 0; arm < numArms; arm++ {
			if !paired && arm != armBase {
				continue
			}
			if s, _ := ti.post(req, arm, false); !s.ok {
				return nil, closeAfter(ti, fmt.Errorf("benchmark: warm-up job on %s n=%d failed", req.Matrix.Kind, req.Matrix.N))
			}
		}
	}
	return ti, nil
}

// yardstick is the handler of the yardstick job: the transport and the JSON
// of a solve job, and in place of the solve a fixed number of products of
// the benchmark's own on vectors it allocates per request, as a job does.
func yardstick(a *CSR, products int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		x, y := serviceRHS(a.Cols), make([]float64, a.Rows)
		for i := 0; i < products; i++ {
			ownMatVec(a, y, x)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Response{Converged: true, N: a.Rows, Iterations: products, Residual: y[0]}) //lint:ignore errdrop a client that hung up is counted as a failed job on its side
	})
}

func closeAfter(ti *trafficInstance, err error) error {
	_ = ti.close() //lint:ignore errdrop the set-up error is the one reported
	return err
}

func (ti *trafficInstance) warmup() error  { return nil }
func (ti *trafficInstance) jobs() *traffic { return ti.mix }

func (ti *trafficInstance) close() error {
	ti.client.CloseIdleConnections()
	var err error
	for _, e := range []*endpoint{ti.yard, ti.routed, ti.direct} {
		if e == nil {
			continue
		}
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// layerProblem is the first hot operator as the service solves it: no
// preconditioner, the service's default right-hand side.
func (ti *trafficInstance) layerProblem() (*problem, error) {
	a, err := buildSpec(ti.mix.hot[0].Matrix)
	if err != nil {
		return nil, err
	}
	return newProblem(a, "none", "pcg", serviceRHS(a.Rows))
}

// url is where an arm's jobs go. Mixed traffic has one target; paired
// traffic sends base to the service, main through the router and alt
// through the router's streaming path.
func (ti *trafficInstance) url(arm int) string {
	if arm == armRef {
		return ti.yard.url
	}
	if !ti.paired || arm == armBase {
		return ti.direct.url + "/solve"
	}
	if arm == armAlt {
		return ti.routed.url + "/solve?stream=1"
	}
	return ti.routed.url + "/solve"
}

// streamLine is one NDJSON line of a streamed job.
type streamLine struct {
	Event  string    `json:"event"`
	Result *Response `json:"result"`
	Error  string    `json:"error"`
}

// post sends one job and waits for its result. The returned solution is
// non-nil when it was asked for.
func (ti *trafficInstance) post(req Request, arm int, wantX bool) (sample, []float64) {
	req.ReturnSolution = wantX
	s := sample{arm: arm}
	body, err := json.Marshal(req)
	if err != nil {
		s.why = err.Error()
		return s, nil
	}
	url := ti.url(arm)
	s.start = time.Now()
	for offers := 1; ; offers++ {
		resp, err := ti.client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			s.why = err.Error()
			return s, nil
		}
		var out *Response
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			// Closed loop under back-pressure: offer the same job again.
			s.why = "refused with HTTP status 429 on every offer"
		case resp.StatusCode != http.StatusOK:
			s.why = "HTTP status " + resp.Status
		case ti.paired && arm == armAlt:
			s.why = "stream ended without a result line"
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(nil, 64<<20)
			for sc.Scan() {
				var line streamLine
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
					s.why = fmt.Sprintf("stream line: %v %s", err, line.Error)
					break
				}
				if line.Result != nil {
					out = line.Result
				}
			}
		default:
			out = new(Response)
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				s.why, out = "response: "+err.Error(), nil
			}
		}
		_, _ = io.Copy(io.Discard, resp.Body) //lint:ignore errdrop draining so the connection is reused; the job's outcome is already known
		_ = resp.Body.Close()                 //lint:ignore errdrop the body is read; a close failure cannot change the outcome
		if resp.StatusCode == http.StatusTooManyRequests && offers < maxOffers {
			time.Sleep(time.Millisecond)
			continue
		}
		s.ms = time.Since(s.start).Seconds() * 1e3
		if out == nil {
			return s, nil
		}
		s.queueMs, s.solveMs = out.QueueMillis, out.SolveMillis
		s.loose = out.VerifiedResidual > 10*solveTol
		switch limit := residualLimit(req); {
		case !out.Converged:
			s.why = "not converged"
		case !(out.VerifiedResidual <= limit):
			s.why = fmt.Sprintf("verified residual %.3g above %.0e", out.VerifiedResidual, limit)
		default:
			s.ok, s.why = true, ""
		}
		return s, out.X
	}
}

// schedule says which round a moment of the phase belongs to and, for
// paired traffic, which arm the clients are on: the three targets take
// turns, in an order that rotates every round.
func (ti *trafficInstance) schedule(elapsed time.Duration) (round, arm int) {
	slice := int(elapsed / ti.sliceDur)
	if !ti.paired {
		return slice, -1
	}
	round = slice / numArms
	return round, (round + slice%numArms) % numArms
}

type checkedJob struct {
	req Request
	x   []float64
}

func (ti *trafficInstance) measure(seconds float64, rec *recorder) {
	total := time.Duration(seconds * float64(time.Second))
	ti.sliceDur = time.Second
	if ti.paired {
		ti.sliceDur = 250 * time.Millisecond
	}
	if short := total / (2 * numArms); short < ti.sliceDur {
		ti.sliceDur = short
	}
	perClient := make([][]sample, ti.clients)
	toCheck := make([][]checkedJob, ti.clients)
	var wg sync.WaitGroup
	// A paired phase whose jobs are long against its slices (a short probe
	// on a slow host) goes on, to twenty times its length at most, until
	// every target has answered a job: the rungs need all three.
	var answered [numSlot]atomic.Bool
	over := func(elapsed time.Duration) bool {
		if elapsed < total || !ti.paired || elapsed >= 20*total {
			return elapsed >= total
		}
		return answered[armBase].Load() && answered[armMain].Load() && answered[armAlt].Load()
	}
	before := ti.tierStats()
	start := time.Now()
	for c := 0; c < ti.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(ti.mix.seed*1009 + int64(c)))
			for i := 0; ; i++ {
				elapsed := time.Since(start)
				if over(elapsed) {
					return
				}
				round, arm := ti.schedule(elapsed)
				req, drawn := ti.mix.draw(rng)
				if !ti.paired {
					arm = drawn
				}
				if ti.yard != nil && i%yardEvery == 1 { // never a job that is checked: checkEvery is a multiple
					arm = armRef
				}
				s, x := ti.post(req, arm, i%checkEvery == 0)
				s.round = round
				answered[arm].Store(true)
				if x != nil {
					toCheck[c] = append(toCheck[c], checkedJob{req, x})
				}
				if rec.tracedRound(round) {
					ti.trace(rec.tr, s)
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, after := range ti.tierStats() {
		ti.phase[i] = after.minus(before[i])
	}
	ti.phaseArmSeconds = ti.armSeconds(elapsed)

	rounds, _ := ti.schedule(elapsed)
	perRound := make([][numSlot][]float64, rounds+1)
	var done [numSlot]float64
	for c := range perClient {
		for _, s := range perClient[c] {
			rec.attempted++
			if !s.ok {
				rec.fail("%s job: %s", armNames[s.arm], s.why)
				continue
			}
			if s.arm != armRef {
				rec.samples = append(rec.samples, s)
			}
			a := &rec.arms[s.arm]
			a.ops = append(a.ops, s.ms)
			a.traced = append(a.traced, rec.tracedRound(s.round))
			perRound[s.round][s.arm] = append(perRound[s.round][s.arm], s.ms)
			done[s.arm]++
		}
	}
	for _, r := range perRound {
		for arm := range r {
			mid := math.NaN()
			if len(r[arm]) >= minRoundSamples {
				mid = midmean(r[arm])
			}
			rec.arms[arm].rounds = append(rec.arms[arm].rounds, mid)
		}
	}
	// Throughput: every job over the phase for mixed traffic; for paired
	// traffic the jobs sent through the router over the time spent on it.
	rec.ops, rec.opsSeconds = done[armBase]+done[armMain]+done[armAlt], elapsed.Seconds()
	if ti.paired {
		rec.ops, rec.opsSeconds = done[armMain], ti.phaseArmSeconds[armMain]
	}
	ti.checkSolutions(toCheck, rec)
}

func (ti *trafficInstance) tierStats() [2]tierStats {
	st := [2]tierStats{ti.direct.stats()}
	if ti.routed != nil {
		st[1] = ti.routed.stats()
	}
	return st
}

// armSeconds is how long paired clients spent on each arm's target; mixed
// traffic spends the whole phase on the base target.
func (ti *trafficInstance) armSeconds(elapsed time.Duration) [numArms]float64 {
	var secs [numArms]float64
	if !ti.paired {
		secs[armBase] = elapsed.Seconds()
		return secs
	}
	for at := time.Duration(0); at < elapsed; at += ti.sliceDur {
		_, arm := ti.schedule(at)
		d := ti.sliceDur
		if at+d > elapsed {
			d = elapsed - at
		}
		secs[arm] += d.Seconds()
	}
	return secs
}

// checkSolutions recomputes the residual of every returned solution on the
// benchmark's own copy of the job's operator, after the timed phase.
func (ti *trafficInstance) checkSolutions(toCheck [][]checkedJob, rec *recorder) {
	type system struct {
		a *CSR
		b []float64
	}
	built := map[string]system{}
	for _, jobs := range toCheck {
		for _, j := range jobs {
			spec := j.req.Matrix
			key := fmt.Sprintf("%s/%d/%d/%d/%v", spec.Kind, spec.N, spec.Seed, spec.Degree, spec.Beta)
			sys, ok := built[key]
			if !ok {
				a, err := buildSpec(spec)
				if err != nil {
					rec.fail("%v", err)
					continue
				}
				sys = system{a, serviceRHS(a.Rows)}
				built[key] = sys
			}
			if res := ownResidual(sys.a, sys.b, j.x); !(res <= residualLimit(j.req)) {
				rec.sdc++
				rec.fail("job on %s: reported converged, but ‖b−Ax‖/‖b‖ = %.3g", key, res)
			}
		}
	}
}

// trace records one job as a client span with the service's own queue and
// solve times as children; the client span's self time is then what HTTP,
// JSON and, through the router, the extra hop cost.
func (ti *trafficInstance) trace(tr *tracer, s sample) {
	end := s.start.Add(time.Duration(s.ms * float64(time.Millisecond)))
	id := tr.add("job."+armNames[s.arm], 0, 0, s.start, end, 1, 0)
	inner := time.Duration((s.queueMs + s.solveMs) * float64(time.Millisecond))
	at := s.start.Add((end.Sub(s.start) - inner) / 2)
	mid := at.Add(time.Duration(s.queueMs * float64(time.Millisecond)))
	tr.add("service.queue", id, id, at, mid, 1, 0)
	tr.add("service.solve", id, id, mid, at.Add(inner), 1, 0)
}

// mixedTraffic is the serve_mixed mix: four hot grid Laplacians, and cold
// random SPD operators drawn from coldPool seeds.
func mixedTraffic(seed int64) *traffic {
	t := &traffic{coldShare: 0.2, chaosShare: 0.1, seed: seed, yardProducts: 400}
	for _, n := range []int{40, 44, 48, 52} {
		t.hot = append(t.hot, Request{Matrix: MatrixSpec{Kind: "laplace2d", N: n}})
	}
	t.cold = func(k int) Request {
		return Request{Matrix: MatrixSpec{Kind: "spd", N: sizes.cold, Degree: 4, Seed: seed*coldPool + int64(k%coldPool)}}
	}
	return t
}

// tinyTraffic is the router_tiny mix: six operators small enough that a
// solve takes a fraction of a millisecond and the hop dominates.
func tinyTraffic(seed int64) *traffic {
	return &traffic{seed: seed, yardProducts: 200, hot: []Request{
		{Matrix: MatrixSpec{Kind: "laplace2d", N: 12}},
		{Matrix: MatrixSpec{Kind: "laplace2d", N: 16}},
		{Matrix: MatrixSpec{Kind: "laplace2d", N: 20}},
		{Matrix: MatrixSpec{Kind: "spd", N: 300, Degree: 4, Seed: seed + 7}},
		{Matrix: MatrixSpec{Kind: "spd", N: 300, Degree: 4, Seed: seed + 11}},
		{Matrix: MatrixSpec{Kind: "spd", N: 256, Degree: 4, Seed: seed + 13}},
	}}
}

func newServeMixed(seed int64, host hostInfo) (instance, error) {
	return newTrafficInstance(mixedTraffic(seed), false, host.NProc)
}

func newRouterTiny(seed int64, host hostInfo) (instance, error) {
	return newTrafficInstance(tinyTraffic(seed), true, host.NProc)
}
