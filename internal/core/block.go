package core

import (
	"fmt"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// Batched multi-RHS protected PCG: k right-hand sides against ONE operator
// solved in lockstep, sharing one checksum encoding, one kernel pool and —
// the point — one matrix traversal per iteration (kernel.MulVecBlock) and
// columnwise Eq. (2)/(3) checksum updates (internal/checksum/block.go).
//
// The block solve is a scheduling optimization, never a numerical one:
// every column carries its own iterates, scalars, checksum state,
// checkpoint store and rollback budget, and executes exactly the operation
// sequence of a single-RHS BasicPCG on its column. When the batch is
// fault-free, column j's result is bitwise-identical to BasicPCG(a, m,
// bs[j], opts) — the property TestBlockPCGBitwiseMatchesSingle pins.
//
// Fault isolation is per column. A detection on column j rolls back only
// column j's state to its own checkpoint; the other columns never see the
// event. A column that exhausts its rollback budget, breaks down, or fails
// to converge dies alone — its error lands in BlockResult.Errs[j] and the
// remaining columns keep iterating. This is what lets the service batch
// concurrent requests without coupling their failure domains.

// BlockOptions configures a batched solve. The embedded Options apply to
// every column (a batching layer must only coalesce requests that share
// tol, iteration caps and detection cadence — see service.batchParams).
// The block path supports the basic scheme only: ForwardRecovery,
// EagerDetection, EagerTriple, Trace, and X0 are rejected.
type BlockOptions struct {
	Options
	// ColInjectors supplies per-column fault injectors; nil, or a nil
	// entry, runs that column fault-free. A column with an injector takes
	// the solo (per-column) MVM path so strikes land on exactly the same
	// operation sites as in a single-RHS solve.
	ColInjectors []*fault.Injector
}

// BlockResult reports a batched solve: one Result and one error slot per
// column, index-aligned with the input right-hand sides. Errs[j] is nil
// when column j converged; a failed column never aborts its siblings.
type BlockResult struct {
	Cols []Result
	Errs []error
}

// blockCol is one column's full solver state.
type blockCol struct {
	res           *Result
	err           *error
	x, r, z, p, q *tracked
	bT            *tracked
	b             []float64
	inj           *fault.Injector
	store         checkpoint.Store
	rho           float64
	alpha         float64
	relres        float64
	normB         float64
	i             int
	active        bool
}

// Outcomes of one column's post-MVM step.
const (
	colIterated = iota
	colConverged
	colRolledBack
	colDied
)

// blockSolver bundles the shared engine with the per-column states and the
// preallocated gather buffers of the batched phases.
type blockSolver struct {
	e    *engine
	opts *Options
	cols []*blockCol

	// Gather buffers for the batched MVM and VLO phases, sized once at
	// construction so the steady-state sweep allocates nothing.
	gp, gq            [][]float64
	gps, gpeta        [][]float64
	gqs, gqeta        [][]float64
	gxs, gxeta        [][]float64
	grs, greta        [][]float64
	galpha, gnegalpha []float64
	gmvm, gvlo        []*blockCol
	tolRes            float64
	maxIter, d, cd    int
}

// BasicBlockPCG solves A·X = B for k right-hand sides bs under the basic
// online ABFT scheme (Algorithm 1 columnwise), with per-column detection,
// checkpointing, rollback and failure. See the package comment above for
// the bitwise and isolation contracts.
func BasicBlockPCG(a *sparse.CSR, m precond.Preconditioner, bs [][]float64, opts BlockOptions) (BlockResult, error) {
	var br BlockResult
	if len(bs) == 0 {
		return br, fmt.Errorf("core: block solve needs at least one right-hand side")
	}
	for j := range bs {
		if err := validateSystem(a, bs[j]); err != nil {
			return br, fmt.Errorf("core: block column %d: %w", j, err)
		}
	}
	if opts.ColInjectors != nil && len(opts.ColInjectors) != len(bs) {
		return br, fmt.Errorf("core: %d columns but %d injectors", len(bs), len(opts.ColInjectors))
	}
	if opts.ForwardRecovery || opts.EagerDetection || opts.EagerTriple || opts.Trace != nil || opts.X0 != nil {
		return br, fmt.Errorf("core: block solve supports the basic scheme only (no forward recovery, eager modes, trace, or x0)")
	}
	opts.normalize()

	k := len(bs)
	br.Cols = make([]Result, k)
	br.Errs = make([]error, k)

	var setup Stats
	e := newEngine(a, m, checksum.Single, &opts.Options, &setup)
	s := &blockSolver{
		e:    e,
		opts: &opts.Options,
		cols: make([]*blockCol, k),

		gp: make([][]float64, k), gq: make([][]float64, k),
		gps: make([][]float64, k), gpeta: make([][]float64, k),
		gqs: make([][]float64, k), gqeta: make([][]float64, k),
		gxs: make([][]float64, k), gxeta: make([][]float64, k),
		grs: make([][]float64, k), greta: make([][]float64, k),
		galpha: make([]float64, k), gnegalpha: make([]float64, k),
		gmvm: make([]*blockCol, k), gvlo: make([]*blockCol, k),

		d:  opts.DetectInterval,
		cd: opts.CheckpointInterval,
	}
	s.tolRes, s.maxIter = opts.stopping(a.Rows)

	for j := range bs {
		c := &blockCol{
			res:   &br.Cols[j],
			err:   &br.Errs[j],
			b:     bs[j],
			store: opts.newStore(),
		}
		if opts.ColInjectors != nil {
			c.inj = opts.ColInjectors[j]
		}
		s.cols[j] = c
		s.initCol(c)
	}

	s.solve()

	for _, c := range s.cols {
		c.res.Residual = c.relres
		if c.inj != nil {
			c.res.Stats.InjectedErrors = len(c.inj.Injected)
		}
		if !c.res.Converged && *c.err == nil {
			_, *c.err = notConverged("ABFT BlockPCG", *c.res, c.relres)
		}
	}
	return br, nil
}

// bind points the shared engine's per-solve hooks (stats, injector) at one
// column for the duration of that column's operations. The engine is used
// by one goroutine, column by column, so this is a plain field swap.
func (s *blockSolver) bind(c *blockCol) {
	s.e.stats = &c.res.Stats
	s.e.inj = c.inj
}

// initCol runs the pre-loop setup of Algorithm 1 on one column: r = b −
// A·x0 computed cleanly, initial convergence test, initial projection
// z = M⁻¹r, p = z, ρ = rᵀz — the exact sequence of BasicPCG.
func (s *blockSolver) initCol(c *blockCol) {
	e := s.e
	s.bind(c)
	c.x = e.newTracked("x")
	c.r = e.newTracked("r")
	c.z = e.newTracked("z")
	c.p = e.newTracked("p")
	c.q = e.newTracked("q")
	c.bT = e.wrap("b", c.b)

	e.residual(c.r, c.bT, c.x)
	c.normB = e.rhsNorm(c.b)
	c.res.X = c.x.data
	c.relres = e.norm2(c.r.data) / c.normB
	if c.relres <= s.tolRes {
		c.res.Converged = true
		return
	}
	if err := e.pco(-1, c.z, c.r); err != nil {
		*c.err = err
		return
	}
	copyTracked(c.p, c.z)
	c.rho = e.dot(c.r.data, c.z.data)
	c.active = true
}

// fail deactivates a column with a terminal error; its siblings continue.
//
//hot:cold per-column terminal failure
func (s *blockSolver) fail(c *blockCol, err error) {
	*c.err = err
	c.active = false
}

// saveCheckpoint snapshots one column's {p, x, ρ} with carried checksums.
//
//hot:cold checkpoint machinery: invoked once per cd iterations per column
func (s *blockSolver) saveCheckpoint(c *blockCol) {
	c.store.Save(c.i,
		map[string][]float64{"p": c.p.data, "x": c.x.data},
		map[string]float64{"rho": c.rho},
		map[string][]float64{"p": c.p.s, "x": c.x.s, "p.eta": c.p.eta, "x.eta": c.x.eta},
	)
	c.res.Stats.Checkpoints++
	c.res.Stats.CheckpointBytes = c.store.BytesCopied
	c.res.Stats.CheckpointStoredBytes = c.store.BytesStored
	s.e.corruptCheckpoint(c.i, &c.store)
}

// rollback restores one column's snapshot and reconstructs its residual —
// the per-column recovery of Algorithm 1 line 9. Only this column's
// iteration counter moves; the rest of the batch is untouched.
//
//hot:cold recovery machinery: runs only after a detection
func (s *blockSolver) rollback(c *blockCol) bool {
	c.res.Stats.Rollbacks++
	if c.res.Stats.Rollbacks > s.opts.MaxRollbacks {
		return false
	}
	scal := map[string]float64{}
	snapIter, err := c.store.Restore(
		map[string][]float64{"p": c.p.data, "x": c.x.data},
		scal,
		map[string][]float64{"p": c.p.s, "x": c.x.s, "p.eta": c.p.eta, "x.eta": c.x.eta},
	)
	if err != nil {
		return false
	}
	c.rho = scal["rho"]
	if c.store.Lossy() {
		// Quantized restore: re-anchor this column's restored checksums
		// from the perturbed data before anything verifies them.
		s.e.recompute(c.x)
		c.res.Stats.LossyRestores++
	}
	s.e.residual(c.r, c.bT, c.x)
	c.res.Stats.RecoveryMVMs++
	if c.store.Lossy() {
		// The restored direction and ρ belong to the exact snapshot state;
		// against the reconstructed residual the stale ρ makes the first
		// β = ρ'/ρ blow up and poison p (see BasicPCG's rollback). Restart
		// this column: z = M⁻¹r, p := z, ρ = rᵀz.
		if err := s.e.pco(-1, c.z, c.r); err != nil {
			return false
		}
		copyTracked(c.p, c.z)
		c.rho = s.e.dot(c.r.data, c.z.data)
	}
	c.res.Stats.WastedIterations += c.i - snapIter
	c.i = snapIter
	return true
}

// preMVM runs one column's pre-MVM phase — the outer-level detection
// boundary and the checkpoint boundary, with rollback repetition — and
// reports whether the column is still alive. The operation sequence per
// column is exactly BasicPCG's loop head.
func (s *blockSolver) preMVM(c *blockCol) bool {
	e := s.e
	s.bind(c)
	for {
		if c.i >= s.maxIter {
			//hot:cold iteration-budget exhaustion
			c.active = false
			return false
		}
		if c.i > 0 && c.i%s.d == 0 {
			xOK := e.verify(c.x)
			rOK := true
			if xOK {
				rOK = e.verify(c.r)
			}
			//hot:cold detection handling: per-column rollback
			if !xOK || !rOK {
				if !s.rollback(c) {
					s.fail(c, rollbackStormErr("BlockPCG", Basic))
					return false
				}
				continue
			}
		}
		//hot:cold amortized checkpoint branch: once per cd iterations
		if c.i%s.cd == 0 {
			if c.i > 0 && !e.verify(c.p) {
				if !s.rollback(c) {
					s.fail(c, rollbackStormErr("BlockPCG", Basic))
					return false
				}
				continue
			}
			s.saveCheckpoint(c)
		}
		return true
	}
}

// postMVM runs one column's post-MVM phase: recurrence scalars, the x and
// r updates (already applied by the batched VLO phase when batched ==
// true), convergence test and the recurrence tail. It mirrors BasicPCG
// line for line; batched == false applies the axpy updates here (the solo
// redo path after a rollback).
func (s *blockSolver) postMVM(c *blockCol, batched bool) int {
	e := s.e
	s.bind(c)
	if !batched {
		pq := e.dot(c.p.data, c.q.data)
		//hot:cold suspect-scalar detection and rollback
		if suspectScalar(pq) {
			c.res.Stats.Detections++
			if !s.rollback(c) {
				s.fail(c, rollbackStormErr("BlockPCG", Basic))
				return colDied
			}
			return colRolledBack
		}
		//hot:cold breakdown exit
		//lint:ignore floatcmp exact zero guards the division below, not a detection decision
		if pq == 0 {
			s.fail(c, breakdownErr("BlockPCG", Basic, c.i, "pᵀAp = 0"))
			return colDied
		}
		c.alpha = c.rho / pq
		e.axpy(c.i, c.x, c.alpha, c.p)
		e.axpy(c.i, c.r, -c.alpha, c.q)
	}
	c.i++
	c.res.Iterations = c.i

	c.relres = e.norm2(c.r.data) / c.normB
	//hot:cold diagnostic residual history, off by default
	if s.opts.RecordResiduals {
		c.res.History = append(c.res.History, c.relres)
	}
	//hot:cold convergence exit: verified once per column, rollback on a corrupted residual
	if c.relres <= s.tolRes {
		xOK := e.verify(c.x)
		rOK := true
		if xOK {
			rOK = e.verify(c.r)
		}
		if xOK && rOK {
			c.res.Converged = true
			c.active = false
			return colConverged
		}
		if !s.rollback(c) {
			s.fail(c, rollbackStormErr("BlockPCG", Basic))
			return colDied
		}
		return colRolledBack
	}

	if err := e.pco(c.i-1, c.z, c.r); err != nil {
		//hot:cold preconditioner failure kills the column, not the batch
		s.fail(c, err)
		return colDied
	}
	rhoNew := e.dot(c.r.data, c.z.data)
	beta := rhoNew / c.rho
	e.xpby(c.i-1, c.p, c.z, beta, c.p)
	c.rho = rhoNew
	return colIterated
}

// scalarStep computes one column's recurrence scalar pᵀAp and step length
// for the batched VLO phase, with the same suspect-scalar and breakdown
// handling as BasicPCG.
func (s *blockSolver) scalarStep(c *blockCol) int {
	e := s.e
	s.bind(c)
	pq := e.dot(c.p.data, c.q.data)
	//hot:cold suspect-scalar detection and rollback
	if suspectScalar(pq) {
		c.res.Stats.Detections++
		if !s.rollback(c) {
			s.fail(c, rollbackStormErr("BlockPCG", Basic))
			return colDied
		}
		return colRolledBack
	}
	//hot:cold breakdown exit
	//lint:ignore floatcmp exact zero guards the division below, not a detection decision
	if pq == 0 {
		s.fail(c, breakdownErr("BlockPCG", Basic, c.i, "pᵀAp = 0"))
		return colDied
	}
	c.alpha = c.rho / pq
	return colIterated
}

// soloIterate re-runs one full iteration for a column that rolled back
// mid-sweep: loop head, solo MVM, solo tail. Bitwise-identical per column
// to the batched phases — both are the BasicPCG operation sequence.
//
//hot:cold solo redo path: runs only after a per-column rollback
func (s *blockSolver) soloIterate(c *blockCol) {
	for c.active {
		if !s.preMVM(c) {
			return
		}
		s.bind(c)
		s.e.mvm(c.i, c.q, c.p)
		if s.postMVM(c, false) != colRolledBack {
			return
		}
	}
}

// solve is the lockstep sweep: every active column advances one iteration
// per pass — pre-MVM boundaries, one batched block MVM with the columnwise
// Eq. (2) update, the batched Eq. (3) x/r updates, then the per-column
// tails. Columns holding an injector take the solo MVM so faults strike
// the same sites as in a single solve; columns that roll back mid-sweep
// finish their iteration on the solo path.
//
//hot:loop batched PCG protected iteration (Algorithm 1 columnwise)
func (s *blockSolver) solve() {
	e := s.e
	for {
		anyActive := false
		for _, c := range s.cols {
			if c.active {
				anyActive = true
				break
			}
		}
		if !anyActive {
			return
		}
		if err := s.opts.ctxErr("BlockPCG"); err != nil {
			//hot:cold cancellation: every still-active column reports it
			for _, c := range s.cols {
				if c.active {
					s.fail(c, err)
				}
			}
			return
		}

		// Pre-MVM boundaries, gathering the columns that will take the
		// batched MVM (no injector) and the solo ones (injector present).
		nm, ns := 0, 0
		for _, c := range s.cols {
			if !c.active || !s.preMVM(c) {
				continue
			}
			if c.inj == nil {
				s.gmvm[nm] = c
				s.gp[nm] = c.p.data
				s.gq[nm] = c.q.data
				s.gps[nm] = c.p.s
				s.gpeta[nm] = c.p.eta
				s.gqs[nm] = c.q.s
				s.gqeta[nm] = c.q.eta
				nm++
			} else {
				s.gvlo[ns] = c
				ns++
			}
		}

		// One matrix traversal feeds every batched column (Eq. 2
		// columnwise); injector columns run the instrumented solo MVM.
		if nm > 0 {
			e.pool.MulVecBlock(e.a, s.gq[:nm], s.gp[:nm])
			e.encA.UpdateMVMBoundCols(s.gqs[:nm], s.gqeta[:nm], s.gp[:nm], s.gps[:nm], s.gpeta[:nm])
			for _, c := range s.gmvm[:nm] {
				c.res.Stats.ChecksumUpdates++
			}
		}
		for _, c := range s.gvlo[:ns] {
			s.bind(c)
			e.mvm(c.i, c.q, c.p)
		}

		// Batched step lengths and Eq. (3) x/r updates for the columns
		// that passed the scalar guard; the rest redo solo.
		nv := 0
		for _, c := range s.cols {
			if !c.active {
				continue
			}
			switch s.scalarStep(c) {
			case colIterated:
				s.gvlo[nv] = c
				s.galpha[nv] = c.alpha
				s.gnegalpha[nv] = -c.alpha
				s.gp[nv] = c.p.data
				s.gq[nv] = c.q.data
				s.gxs[nv] = c.x.s
				s.gxeta[nv] = c.x.eta
				s.gps[nv] = c.p.s
				s.gpeta[nv] = c.p.eta
				s.grs[nv] = c.r.s
				s.greta[nv] = c.r.eta
				s.gqs[nv] = c.q.s
				s.gqeta[nv] = c.q.eta
				nv++
			case colRolledBack:
				s.soloIterate(c)
			}
		}
		for i, c := range s.gvlo[:nv] {
			e.pool.Axpy(c.x.data, s.galpha[i], s.gp[i])
		}
		nvxs := s.gatherXS(nv)
		checksum.UpdateVLOAxpyBoundCols(nvxs, s.gxeta[:nv], s.galpha[:nv], s.gps[:nv], s.gpeta[:nv])
		for i, c := range s.gvlo[:nv] {
			e.pool.Axpy(c.r.data, s.gnegalpha[i], s.gq[i])
			c.res.Stats.ChecksumUpdates += 2
		}
		checksum.UpdateVLOAxpyBoundCols(s.grs[:nv], s.greta[:nv], s.gnegalpha[:nv], s.gqs[:nv], s.gqeta[:nv])

		// Per-column tails: convergence, projection, recurrence update.
		for _, c := range s.gvlo[:nv] {
			if s.postMVM(c, true) == colRolledBack {
				s.soloIterate(c)
			}
		}
	}
}

// gatherXS returns the x-checksum gather view of the first nv columns.
// (A helper only so the batched phase reads as one statement per update.)
func (s *blockSolver) gatherXS(nv int) [][]float64 {
	return s.gxs[:nv]
}
