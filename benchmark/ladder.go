package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// The traced run's layer ladder. After the timed phase it replays, on the
// workload's own operator, the constituent operations of one protected
// iteration (kernel, checksum, precond, checkpoint), then whole solves per
// scheme (core, solver, par), then the same operator as jobs through one
// service and through the router. Every rung runs under a span.

const (
	rungSamples = 5
	// parRanks is the team size of the par rungs and of the par workload's
	// main arm; parOversubscribed exceeds the reference host's two cores
	// and is run for its counts only.
	parRanks          = 2
	parOversubscribed = 4
	missProbes        = 5
)

// layerRun carries what the rungs of one traced run share.
type layerRun struct {
	tr   *tracer
	root int // span the rungs hang under
	rec  *recorder
	host hostInfo
	// seconds is the run's --seconds. The ladder's own time scales with
	// it: a rung is sampled in batches of seconds/600 (20 ms in a 12 s run)
	// and a service or router probe lasts seconds/4.
	seconds float64
	metrics map[string]float64
	out     *printer // the report
}

// timeRung returns the median time of one call of fn in nanoseconds, from
// rungSamples batches of about seconds/600 each.
func (l *layerRun) timeRung(name string, units float64, bytes int64, fn func()) float64 {
	batch := time.Duration(l.seconds / 600 * float64(time.Second))
	start := time.Now()
	fn() // warms caches and sizes the batch
	est := time.Since(start)
	calls := 1
	if est < batch {
		calls = int(batch/(est+1)) + 1
	}
	perCall := make([]float64, rungSamples)
	for s := range perCall {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		perCall[s] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	n := float64(1 + calls*rungSamples)
	l.tr.add(name, l.root, l.root, start, time.Now(), n*units, int64(n)*bytes)
	return median(perCall)
}

// opLadder replays the operations of one iteration and the set-up steps.
func (l *layerRun) opLadder(p *problem) error {
	pool := newKernelPool(l.host.NProc)
	defer pool.close()
	rungs, after, err := ladderRungs(p, pool)
	if err != nil {
		return err
	}
	ns := map[string]float64{}
	for _, r := range rungs {
		ns[r.name] = l.timeRung(r.name, r.units, r.bytes, r.fn)
		if r.metric == "" {
			continue
		}
		l.metrics[r.metric] = ns[r.name] / r.units
		if r.seconds {
			l.metrics[r.metric] = ns[r.name] / 1e9
		}
	}
	extra, err := after()
	if err != nil {
		return err
	}
	for k, v := range extra {
		l.metrics[k] = v
	}

	// The roof: a triad of the benchmark's own over arrays that together
	// are as large as the bytes one SpMV touches, in the same run.
	matrix, vector := p.footprint()
	spmvBytes := matrix + 2*vector
	tn := int(spmvBytes / 24)
	ta, tb, tc := make([]float64, tn), make([]float64, tn), make([]float64, tn)
	for i := range tb {
		tb[i], tc[i] = float64(i%5), float64(i%3)
	}
	triad := l.timeRung("kernel.triad", float64(tn), int64(24*tn), func() {
		for i := range ta {
			ta[i] = tb[i] + 0.5*tc[i]
		}
	})
	l.metrics["kernel.spmv_gbps"] = float64(spmvBytes) / ns["kernel.spmv"]
	l.metrics["kernel.triad_gbps"] = float64(24*tn) / triad
	l.metrics["kernel.spmv_roof_frac"] = l.metrics["kernel.spmv_gbps"] / l.metrics["kernel.triad_gbps"]
	l.metrics["kernel.pool_spmv_speedup_x"] = ns["kernel.spmv"] / ns["kernel.spmv_pool"]

	// What one unprotected iteration is made of, for core.ladder_coverage.
	iter := ns["kernel.spmv"] + ns["precond.apply"] + 2*ns["kernel.dot"] + ns["kernel.norm2"] + 2*ns["kernel.axpy"] + ns["kernel.xpby"]
	if p.method == "bicgstab" {
		iter = 2*ns["kernel.spmv"] + 2*ns["precond.apply"] + 4*ns["kernel.dot"] + 2*ns["kernel.norm2"] + 4*ns["kernel.axpy"] + 2*ns["kernel.xpby"]
	}
	l.metrics["core.ladder_coverage"] = iter // divided by the measured iteration in coreLadder
	// Eq. 5's detection and checkpoint costs: two O(n) verifications (x
	// and r), and one save of the two checkpointed vectors.
	l.metrics["core.t_d_us"] = 2 * ns["checksum.verify"] / 1e3
	l.metrics["core.t_c_us"] = ns["checkpoint.save_full"] / 1e3
	l.out.printf("  footprint: matrix %d B, vector %d B, SpMV touches %d B, triad arrays %d B in total\n", matrix, vector, spmvBytes, 24*tn)
	return nil
}

// timedSolves runs fn reps times under spans and returns the median wall
// time in seconds and the last output, after checking every output.
func (l *layerRun) timedSolves(name string, p *problem, reps int, fn func() (solveOut, error)) (float64, solveOut, error) {
	var secs []float64
	var out solveOut
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		o, err := fn()
		t1 := time.Now()
		l.tr.add(name, l.root, l.root, t0, t1, float64(o.counts.Iterations), 0)
		if !l.rec.checkSolution(name, p, o.x, o.converged, err) {
			return 0, out, fmt.Errorf("benchmark: rung %s failed: %s", name, l.rec.problems[len(l.rec.problems)-1])
		}
		if i > 0 && o.counts != out.counts {
			return 0, out, fmt.Errorf("benchmark: rung %s: counts %+v then %+v on the same inputs", name, out.counts, o.counts)
		}
		out = o
		secs = append(secs, t1.Sub(t0).Seconds())
	}
	return median(secs), out, nil
}

// coreLadder times whole solves per scheme, clean and under Scenario 2, and
// derives Eq. 5's parameters from them.
func (l *layerRun) coreLadder(p *problem) error {
	iterUs := func(secs float64, o solveOut) float64 { return secs * 1e6 / float64(o.counts.Iterations) }
	clean := map[string]float64{}
	var basic solveOut
	for _, scheme := range []string{schemeUnprotected, schemeBasic, schemeTwoLevel} {
		fn, err := prepareSolve(p, solveSpec{scheme: scheme})
		if err != nil {
			return err
		}
		secs, out, err := l.timedSolves("core.solve_"+scheme, p, 2, fn)
		if err != nil {
			return err
		}
		clean[scheme] = secs
		l.metrics["core.iter_us_"+scheme] = iterUs(secs, out)
		if scheme == schemeBasic {
			basic = out
		}
	}
	iters := basic.counts.Iterations
	t := l.metrics["core.iter_us_"+schemeUnprotected]
	l.metrics["core.iterations"] = float64(iters)
	l.metrics["core.checksum_updates"] = float64(basic.counts.ChecksumUpdates)
	l.metrics["core.verifications"] = float64(basic.counts.Verifications)
	l.metrics["core.checkpoint_bytes"] = float64(basic.counts.CheckpointBytes)
	l.metrics["core.ladder_coverage"] /= t * 1e3

	secs, out, err := l.timedSolves("solver.solve", p, 2, func() (solveOut, error) { return plainSolve(p) })
	if err != nil {
		return err
	}
	l.metrics["solver.iter_us"] = iterUs(secs, out)

	// t_u: the basic scheme with verification and checkpoints pushed past
	// the last iteration leaves only the checksum updates on top of t.
	fn, err := prepareSolve(p, solveSpec{scheme: schemeBasic, detect: iters + 1, checkpoint: iters + 1})
	if err != nil {
		return err
	}
	if secs, out, err = l.timedSolves("core.solve_updates_only", p, 2, fn); err != nil {
		return err
	}
	l.metrics["core.t_u_us"] = iterUs(secs, out) - t
	l.metrics["model.eq5_pred_overhead_basic_x"] = 1 + (l.metrics["core.t_u_us"]+l.metrics["core.t_d_us"]+l.metrics["core.t_c_us"]/checkpointInterval)/t

	var before, after runtime.MemStats
	fn, err = prepareSolve(p, solveSpec{scheme: schemeBasic})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&before)
	if _, _, err = l.timedSolves("core.solve_allocs", p, 1, fn); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.metrics["core.allocs_per_solve"] = float64(after.Mallocs - before.Mallocs)

	// Under Scenario 2: rollback (basic), inner correction (two-level) and,
	// where the method has it, forward repair.
	faulty := func(name string, s solveSpec, reps int) (float64, solveOut, error) {
		s.faultIters, s.faultSeed = iters, faultScheduleSeed
		fn, err := prepareSolve(p, s)
		if err != nil {
			return 0, solveOut{}, err
		}
		return l.timedSolves(name, p, reps, fn)
	}
	if secs, out, err = faulty("core.solve_basic_faults", solveSpec{scheme: schemeBasic}, 2); err != nil {
		return err
	}
	l.metrics["core.faulty_ms_basic"] = secs * 1e3
	l.metrics["core.rollbacks"] = float64(out.counts.Rollbacks)
	l.metrics["core.wasted_iters"] = float64(out.counts.WastedIters)
	l.metrics["core.t_r_us"] = 0
	if out.counts.Rollbacks > 0 {
		extra := (secs-clean[schemeBasic])*1e6 - float64(out.counts.WastedIters)*l.metrics["core.iter_us_"+schemeBasic]
		l.metrics["core.t_r_us"] = extra / float64(out.counts.Rollbacks)
	}
	if secs, out, err = faulty("core.solve_twolevel_faults", solveSpec{scheme: schemeTwoLevel}, 1); err != nil {
		return err
	}
	l.metrics["core.faulty_ms_twolevel"] = secs * 1e3
	l.metrics["core.corrections"] = float64(out.counts.Corrections)
	l.metrics["core.forward_repairs"] = 0
	if p.method == "pcg" {
		if _, out, err = faulty("core.solve_forward_faults", solveSpec{scheme: schemeBasic, forward: true}, 1); err != nil {
			return err
		}
		l.metrics["core.forward_repairs"] = float64(out.counts.ForwardRepairs)
	}
	return nil
}

// parLadder runs the goroutine-rank engine on the same operator at 1, 2 and
// 4 ranks. Four ranks exceed the reference host's cores, so only their
// counts are reported.
func (l *layerRun) parLadder(p *problem) error {
	run := func(name string, ranks int, linear bool, reps int) (float64, solveOut, error) {
		return l.timedSolves(name, p, reps, func() (solveOut, error) { return parSolve(p, ranks, linear) })
	}
	secs, out, err := run("par.solve_r1", 1, false, 2)
	if err != nil {
		return err
	}
	l.metrics["par.iter_us_r1"] = secs * 1e6 / float64(out.counts.Iterations)
	l.metrics["par.iterations_r1"] = float64(out.counts.Iterations)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree, out, err := run("par.solve_r2", parRanks, false, 2)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.metrics["par.iter_us_r2"] = tree * 1e6 / float64(out.counts.Iterations)
	l.metrics["par.allocs_per_solve_r2"] = float64(after.Mallocs-before.Mallocs) / 2
	l.parCounts("_r2", out.counts)

	linear, _, err := run("par.solve_r2_linear", parRanks, true, 2)
	if err != nil {
		return err
	}
	l.metrics["par.tree_vs_linear_x"] = tree / linear

	if _, out, err = run("par.solve_r4", parOversubscribed, false, 1); err != nil {
		return err
	}
	l.parCounts("_r4", out.counts)
	return nil
}

func (l *layerRun) parCounts(suffix string, c solveCounts) {
	l.metrics["par.iterations"+suffix] = float64(c.Iterations)
	l.metrics["par.reductions"+suffix] = float64(c.Reductions)
	l.metrics["par.gathers"+suffix] = float64(c.Gathers)
	l.metrics["par.msgs"+suffix] = float64(c.Msgs)
	l.metrics["par.words_moved"+suffix] = float64(c.Words)
}

// jobsThrough returns the jobs of a mixed (one service) or paired (service
// and router) traffic phase with the tiers' counters: the workload's own
// phase when that is the kind of traffic it measured; otherwise a probe, the
// workload's jobs through fresh tiers for a quarter of the run's seconds,
// whose failures count in the run.
func (l *layerRun) jobsThrough(inst instance, paired bool) ([]sample, *trafficInstance, error) {
	if main, ok := inst.(*trafficInstance); ok && main.paired == paired {
		return l.rec.samples, main, nil
	}
	ti, err := newTrafficInstance(inst.jobs(), paired, l.host.NProc)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder(l.tr)
	ti.measure(l.seconds/4, rec)
	l.rec.attempted += rec.attempted
	l.rec.failed += rec.failed
	l.rec.sdc += rec.sdc
	l.rec.problems = append(l.rec.problems, rec.problems...)
	return rec.samples, ti, ti.close()
}

// serviceLadder reports where a job's time goes inside one service, from
// the workload's own traffic when that is what it measured.
func (l *layerRun) serviceLadder(inst instance) error {
	samples, ti, err := l.jobsThrough(inst, false)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchmark: the service rungs completed no job")
	}
	var rt, http []float64
	var queue, solve float64
	loose := 0
	for _, s := range samples {
		if s.loose {
			loose++
		}
		rt = append(rt, s.ms)
		queue += s.queueMs
		solve += s.solveMs
		http = append(http, s.ms-s.queueMs-s.solveMs)
	}
	st := ti.phase[0]
	// The service reports its two times rounded to a microsecond, so their
	// median would take one of a few values; the mean keeps the digits.
	l.metrics["service.queue_ms_mean"] = queue / float64(len(samples))
	l.metrics["service.solve_ms_mean"] = solve / float64(len(samples))
	l.metrics["service.http_overhead_ms_p50"] = median(http)
	l.metrics["service.job_ms_p99"] = quantile(rt, 0.99)
	l.metrics["service.cache_hit_ratio"] = float64(st.cacheHits) / math.Max(1, float64(st.cacheHits+st.cacheMisses))
	l.metrics["service.rejected_429"] = float64(st.rejected)
	l.metrics["service.retries"] = float64(st.retries)
	l.metrics["service.detections"] = float64(st.detections)
	l.metrics["service.rollbacks"] = float64(st.rollbacks)
	l.metrics["service.sdc_suspects"] = float64(st.sdcSuspects)
	l.metrics["service.failed"] = float64(st.failed)
	l.metrics["service.loose_results"] = float64(loose)
	return nil
}

// routerLadder reports what the router adds to a job, from paired slices.
func (l *layerRun) routerLadder(inst instance) error {
	samples, ti, err := l.jobsThrough(inst, true)
	if err != nil {
		return err
	}
	var ms [numArms][]float64
	for _, s := range samples {
		ms[s.arm] = append(ms[s.arm], s.ms)
	}
	if len(ms[armBase]) == 0 || len(ms[armMain]) == 0 {
		return fmt.Errorf("benchmark: the router rungs completed %d direct and %d routed jobs", len(ms[armBase]), len(ms[armMain]))
	}
	st := ti.phase[1]
	l.metrics["router.hop_ms_p50"] = median(ms[armMain]) - median(ms[armBase])
	l.metrics["router.hop_ms_p90"] = quantile(ms[armMain], 0.9) - quantile(ms[armBase], 0.9)
	l.metrics["router.jobs_per_s_direct"] = float64(len(ms[armBase])) / ti.phaseArmSeconds[armBase]
	lo, hi := math.Inf(1), 0.0
	for _, n := range st.slotJobs {
		lo, hi = math.Min(lo, float64(n)), math.Max(hi, float64(n))
	}
	l.metrics["router.backend_skew"] = hi / math.Max(1, lo)
	l.metrics["router.redispatches"] = float64(st.redispatches)
	l.metrics["router.routed_around"] = float64(st.routedAround)
	l.metrics["router.no_backend"] = float64(st.noBackend)
	return nil
}

// missLadder prices an encoding-cache miss: the job that derives the
// encoding against the same job served from the cache, and the two steps
// the service adds around a solve, timed by the benchmark itself.
func (l *layerRun) missLadder(mix *traffic) error {
	// timed runs fn under a span and returns its wall time in ms.
	timed := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		l.tr.add(name, l.root, l.root, t0, t1, 1, 0)
		return t1.Sub(t0).Seconds() * 1e3
	}
	var penalty, derive, verify []float64
	for k := 0; k < missProbes; k++ {
		req := mix.missJob(k)
		// On a fresh service the first job misses the cache and derives
		// the encoding; the same job again hits it.
		submit, stop := freshService()
		var ms [2]float64
		for i, wantHit := range []bool{false, true} {
			var job *Response
			var err error
			ms[i] = timed("service.submit", func() { job, err = submit(context.Background(), req) })
			l.rec.attempted++
			if err != nil || !job.Converged || job.CacheHit != wantHit {
				stop()
				l.rec.fail("cache-miss rung, job %d: %v", i, err)
				return fmt.Errorf("benchmark: cache-miss rung: job %d on a fresh service: err=%v, want it converged with cache_hit=%v", i, err, wantHit)
			}
		}
		stop()
		penalty = append(penalty, ms[0]-ms[1])

		var a *CSR
		var err error
		derive = append(derive, timed("service.derive", func() {
			if a, err = buildSpec(req.Matrix); err == nil {
				err = deriveChecked(a)
			}
		}))
		if err != nil {
			return err
		}
		b := serviceRHS(a.Rows)
		verify = append(verify, timed("service.verify", func() { sink = serviceResidual(a, b, b) }))
	}
	l.metrics["service.miss_penalty_ms"] = median(penalty)
	l.metrics["service.derive_ms"] = median(derive)
	l.metrics["service.verify_ms"] = median(verify)
	return nil
}
