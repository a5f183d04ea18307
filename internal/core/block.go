package core

import (
	"fmt"

	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// Batched multi-RHS protected PCG: k right-hand sides against ONE operator
// solved in lockstep, sharing one checksum encoding, one kernel pool and —
// the point — one matrix traversal per iteration (kernel.MulVecBlock).
//
// The block solve is a scheduling optimization, never a numerical one:
// every column is an ordinary run of the driver — its own PCG recurrence,
// guard, checkpoint store, statistics, injector and rollback budget — and
// executes exactly the operation sequence of a single-RHS BasicPCG on its
// column. When the batch is fault-free, column j's result is
// bitwise-identical to BasicPCG(a, m, bs[j], opts) — the property
// TestBlockPCGBitwiseMatchesSingle pins.
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

// blockOps is the batched backend of the operation vocabulary, beside the
// engine and omv: an MVM whose product the sweep's shared traversal has
// already written is served by the engine's Eq. (2) update alone. Every
// other operation, and every MVM the sweep did not feed — an injector
// column's, or the redo after a rollback moved the direction — is the
// engine's.
type blockOps struct {
	*engine
	fed bool
}

//hot:loop batched MVM on the block solve path
func (o *blockOps) mvm(iter int, dst, src *tracked) {
	if !o.fed {
		o.engine.mvm(iter, dst, src)
		return
	}
	o.fed = false
	o.engine.mvmUpdate(iter, dst, src)
}

// column is one right-hand side's solve: an ordinary run over a per-column
// view of the shared engine, plus the handles the sweep feeds it through.
type column struct {
	*run
	rec  *pcg
	feed *blockOps
	live bool
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

	// One encoding of the operator and the preconditioner stages serves the
	// whole batch; each column views it through its own statistics and
	// injector. The engine is used by one goroutine, column by column, so
	// the views may share its scratch.
	shared := newEngine(a, m, checksum.Single, &opts.Options, nil)
	cols := make([]*column, len(bs))
	for j, b := range bs {
		k := &run{method: MethodPCG, scheme: Basic, opts: opts.Options}
		e := *shared
		e.stats, e.inj = &k.res.Stats, nil
		if opts.ColInjectors != nil {
			e.inj = opts.ColInjectors[j]
		}
		k.setup = e.open(b, &k.opts)
		c := &column{run: k, rec: newPCG(&e), feed: &blockOps{engine: &e}}
		k.assemble(c.rec)
		k.ops = c.feed
		c.live = k.open()
		cols[j] = c
	}

	sweep(shared, cols)

	br.Cols = make([]Result, len(cols))
	br.Errs = make([]error, len(cols))
	for j, c := range cols {
		br.Cols[j], br.Errs[j] = c.res, c.err
	}
	return br, nil
}

// sweep is the lockstep loop: each pass, one matrix traversal produces
// q = A·p for every live column without an injector, then every live column
// takes one turn of the driver — boundaries, the PCG step (whose MVM finds
// its product already there), recovery. Columns holding an injector run the
// instrumented solo MVM so faults strike the same sites as in a single
// solve; a column that rolls back simply rejoins the next pass at its own
// iteration.
func sweep(e *engine, cols []*column) {
	srcs := make([][]float64, len(cols))
	dsts := make([][]float64, len(cols))
	//hot:loop batched PCG protected iteration (Algorithm 1 columnwise)
	for {
		live, n := false, 0
		for _, c := range cols {
			if !c.live {
				continue
			}
			live = true
			if c.e.inj == nil {
				srcs[n], dsts[n] = c.rec.p.data, c.rec.q.data
				c.feed.fed = true
				n++
			}
		}
		if !live {
			return
		}
		if n > 0 {
			e.pool.MulVecBlock(e.a, dsts[:n], srcs[:n])
		}
		for _, c := range cols {
			if c.live {
				c.live = c.turn()
				// A turn that rolled back before its step never took the
				// product: it belongs to a direction that no longer exists.
				c.feed.fed = false
			}
		}
	}
}
