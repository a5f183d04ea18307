package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"newsum/internal/core"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/solver"
)

// The batching layer coalesces concurrent batchable jobs (Request.batchable)
// that name the same operator and solve parameters into one block-Krylov
// multi-RHS protected solve (core.BasicBlockPCG): one checksum encoding, one
// kernel pool, one matrix traversal per iteration across all columns.
//
// Admission shape: the first batchable job for a (spec, params) identity
// opens a batch and rides the admission queue as its leader — so a batch
// occupies exactly one queue slot and one worker, and queue backpressure
// applies to batches the same way it applies to jobs. Later arrivals join
// the open batch without touching the queue, until the batch seals: either
// Config.BatchWindow elapses or Config.MaxBatch columns have gathered.
//
// Batch identity is the FULL spec, not its hash. The open-batch table is
// keyed by MatrixSpec.fingerprint() for O(1) lookup, but joining requires
// equalSpec — bit-for-bit spec equality — plus equal batchParams, so two
// specs that merely collide on the uint64 hash open two separate batches
// and can never share a block solve (mirroring the encoding cache's
// collision arbitration in cache.go).
//
// Failure isolation mirrors the solver's: the block engine detects and
// rolls back per column, and any column the batch cannot complete — solver
// error, SDC suspicion, expired deadline — falls back to the standard
// single-RHS path (s.run) with its full retry machinery. The batch is an
// optimization tier, never a new failure domain: the worst case for a
// column is the latency of having tried the batch first.

// batch is one open or sealed coalescing group.
type batch struct {
	key    uint64
	spec   *MatrixSpec
	params batchParams
	// members is append-only until sealed; the seal (under batcher.mu)
	// happens-before the ready close, so the running worker reads it
	// race-free.
	members []*job
	sealed  bool
	ready   chan struct{}
	timer   *time.Timer
}

// batcher owns the open-batch table.
type batcher struct {
	s        *Service
	window   time.Duration
	maxBatch int

	mu   sync.Mutex
	open map[uint64][]*batch
}

func newBatcher(s *Service, window time.Duration, maxBatch int) *batcher {
	return &batcher{s: s, window: window, maxBatch: maxBatch, open: map[uint64][]*batch{}}
}

// submit routes one batchable job: join the matching open batch, or open a
// new one with j as leader. Called with s.mu held (the leader enqueue must
// stay atomic with the service's closed check); takes bt.mu inside.
// Returns ErrOverloaded when opening a batch and the queue is full.
func (bt *batcher) submit(j *job) error {
	key := j.req.Matrix.fingerprint()
	p := j.req.batchParams()
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for _, b := range bt.open[key] {
		// Full-spec equality, not hash equality: a fingerprint collision
		// must open its own batch.
		if b.params == p && equalSpec(b.spec, &j.req.Matrix) {
			b.members = append(b.members, j)
			if len(b.members) >= bt.maxBatch {
				bt.sealLocked(b)
			}
			return nil
		}
	}
	b := &batch{
		key:     key,
		spec:    &j.req.Matrix,
		params:  p,
		members: []*job{j},
		ready:   make(chan struct{}),
	}
	j.batch = b
	select {
	case bt.s.queue <- j:
	default:
		j.batch = nil
		return ErrOverloaded
	}
	bt.open[key] = append(bt.open[key], b)
	b.timer = time.AfterFunc(bt.window, func() {
		bt.mu.Lock()
		bt.sealLocked(b)
		bt.mu.Unlock()
	})
	return nil
}

// sealAll seals every open batch. Close calls it after stopping admission
// so a worker already parked on a batch's ready channel drains it with the
// members gathered so far instead of waiting out the window.
func (bt *batcher) sealAll() {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for _, list := range bt.open {
		// sealLocked mutates the table; copy the bucket first.
		for _, b := range append([]*batch(nil), list...) {
			bt.sealLocked(b)
		}
	}
}

// sealLocked closes a batch to new members and releases the worker waiting
// on it. Idempotent; caller holds bt.mu.
func (bt *batcher) sealLocked(b *batch) {
	if b.sealed {
		return
	}
	b.sealed = true
	if b.timer != nil {
		b.timer.Stop()
	}
	list := bt.open[b.key]
	for i, o := range list {
		if o == b {
			list[i] = list[len(list)-1]
			bt.open[b.key] = list[:len(list)-1]
			break
		}
	}
	if len(bt.open[b.key]) == 0 {
		delete(bt.open, b.key)
	}
	close(b.ready)
}

// batchContext derives the block solve's context: the latest member
// deadline, so no column is cut short of its own budget. A member whose
// own deadline passes mid-batch is demoted to the single-RHS path, which
// finishes it as canceled.
func batchContext(members []*job) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, j := range members {
		dl, ok := j.ctx.Deadline()
		if !ok {
			return context.WithCancel(context.Background())
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// runBatch waits for the batch to seal, runs the block solve, and settles
// every member: verified converged columns are delivered directly, all
// others fall back to the standard single-RHS path.
func (s *Service) runBatch(b *batch, pool *kernel.Pool) {
	<-b.ready
	members := b.members
	if len(members) == 1 {
		// A batch nobody joined is just a job; skip the block machinery.
		s.run(members[0], pool)
		return
	}
	s.stats.add(func(st *stats) {
		st.batches++
		st.batchedJobs += int64(len(members))
	})

	req := &members[0].req
	a, enc, hit, err := s.resolve(req)
	if err != nil {
		// Operator build failure: every member fails identically through
		// the single path's standard error handling.
		s.demote(members, pool)
		return
	}
	bs := make([][]float64, len(members))
	for i, j := range members {
		bs[i] = j.req.rhs(a.Rows)
	}
	ctx, cancel := batchContext(members)
	defer cancel()
	start := time.Now()
	br, berr := core.BasicBlockPCG(a, precond.Identity(a.Rows), bs, core.BlockOptions{
		Options: core.Options{
			Options:        solver.Options{Tol: req.Tol, MaxIter: req.MaxIter},
			DetectInterval: detectIntervalFor(req, 0),
			MaxRollbacks:   req.MaxRollbacks,
			Encoding:       enc,
			Pool:           pool,
			Ctx:            ctx,

			CheckpointCodec:    s.codec,
			CheckpointAbsBound: s.cfg.CheckpointAbsBound,
			CheckpointRelBound: s.cfg.CheckpointRelBound,
		},
	})
	solveMillis := float64(time.Since(start).Microseconds()) / 1000
	if berr != nil {
		// Unreachable for admitted batchable requests (batchable() excludes
		// every mode the block engine rejects); demote defensively.
		s.demote(members, pool)
		return
	}

	for i, j := range members {
		col := &br.Cols[i]
		if br.Errs[i] == nil && col.Converged && j.ctx.Err() == nil {
			vr := core.TrueResidual(a, bs[i], col.X)
			s.stats.add(func(st *stats) { st.verifiedResiduals++ })
			if vr <= sdcTolFactor*req.tol() {
				s.deliverBatched(j, col, a.Rows, a.NNZ(), vr, hit, len(members), solveMillis, start)
				continue
			}
			s.stats.add(func(st *stats) { st.sdcSuspects++ })
		}
		s.stats.add(func(st *stats) { st.batchFallbacks++ })
		s.run(j, pool)
	}
}

// demote runs every member through the single-RHS path.
func (s *Service) demote(members []*job, pool *kernel.Pool) {
	for _, j := range members {
		s.stats.add(func(st *stats) { st.batchFallbacks++ })
		s.run(j, pool)
	}
}

// deliverBatched settles one member whose column converged and verified:
// the batched counterpart of run's success path, with the same event
// timeline, counters and response shape.
func (s *Service) deliverBatched(j *job, col *core.Result, n, nnz int, vr float64,
	hit bool, cols int, solveMillis float64, start time.Time) {
	defer close(j.done)
	if j.cancel != nil {
		defer j.cancel()
	}
	if j.events != nil {
		defer close(j.events)
	}
	req := &j.req
	resp := &Response{
		JobID:       j.id,
		Solver:      req.solver(),
		Scheme:      req.scheme(),
		N:           n,
		NNZ:         nnz,
		QueueMillis: float64(start.Sub(j.enqueued).Microseconds()) / 1000,
		SolveMillis: solveMillis,

		Converged:        true,
		Iterations:       col.Iterations,
		Residual:         col.Residual,
		VerifiedResidual: vr,
		Attempts:         1,
		CacheHit:         hit,
		Batched:          true,
		BatchCols:        cols,

		Detections: col.Stats.Detections,
		Rollbacks:  col.Stats.Rollbacks,
	}
	if req.ReturnSolution {
		resp.X = col.X
	}
	j.resp = resp
	j.err = nil
	s.emit(j, "start", 0, "")
	if hit {
		s.emit(j, "cache", 0, "hit")
	} else {
		s.emit(j, "cache", 0, "miss")
	}
	s.emit(j, "attempt", 0, fmt.Sprintf("batch k=%d d=%d", cols, detectIntervalFor(req, 0)))
	s.stats.recordSolve(resp, resp.SolveMillis)
	s.stats.add(func(st *stats) { st.completed++ })
	s.emit(j, "result", resp.Attempts, "completed")
}
