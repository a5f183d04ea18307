// Command newsum-solve solves a sparse linear system with a chosen
// iterative method under a chosen fault-tolerance scheme, optionally
// injecting soft errors — a driver for exploring the library interactively.
//
// Usage examples:
//
//	newsum-solve -matrix circuit -n 40000 -solver pcg -scheme twolevel
//	newsum-solve -matrix laplace2d -n 10000 -solver pcg -scheme basic \
//	  -inject 5:mvm:arith -inject 20:pco:cache
//	newsum-solve -matrix path/to/G3_circuit.mtx -solver pcg -scheme basic
//	newsum-solve -matrix diagdom -n 5000 -solver jacobi -scheme basic
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/kernel"
	"newsum/internal/mmio"
	"newsum/internal/par"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

type injectList []fault.Event

func (l *injectList) String() string { return fmt.Sprint([]fault.Event(*l)) }

// Set parses "iter:site:kind[:count]" with site ∈ {mvm, vlo, pco, checksum,
// checkpoint} and kind
// ∈ {arith, mem, cache}.
func (l *injectList) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) < 3 {
		return fmt.Errorf("want iter:site:kind[:count], got %q", s)
	}
	iter, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad iteration %q: %v", parts[0], err)
	}
	var site fault.Site
	switch parts[1] {
	case "mvm":
		site = fault.SiteMVM
	case "vlo":
		site = fault.SiteVLO
	case "pco":
		site = fault.SitePCO
	case "checksum":
		site = fault.SiteChecksum
	case "checkpoint":
		site = fault.SiteCheckpoint
	default:
		return fmt.Errorf("bad site %q (mvm|vlo|pco|checksum|checkpoint)", parts[1])
	}
	var kind fault.Kind
	bitFlip := false
	switch parts[2] {
	case "arith":
		kind = fault.Arithmetic
	case "mem":
		kind = fault.Memory
	case "cache":
		kind = fault.CacheRegister
	case "arith-bit":
		kind, bitFlip = fault.Arithmetic, true
	case "mem-bit":
		kind, bitFlip = fault.Memory, true
	case "cache-bit":
		kind, bitFlip = fault.CacheRegister, true
	default:
		return fmt.Errorf("bad kind %q (arith|mem|cache, or *-bit for a random IEEE-754 bit flip)", parts[2])
	}
	count := 1
	if len(parts) > 3 {
		count, err = strconv.Atoi(parts[3])
		if err != nil {
			return fmt.Errorf("bad count %q: %v", parts[3], err)
		}
	}
	*l = append(*l, fault.Event{Iteration: iter, Site: site, Kind: kind, Index: -1, Count: count, BitFlip: bitFlip, Bit: -1})
	return nil
}

func main() {
	var (
		matrix  = flag.String("matrix", "circuit", "circuit|laplace2d|laplace3d|convdiff|diagdom|<file.mtx>")
		n       = flag.Int("n", 10000, "matrix order for generated matrices")
		solverN = flag.String("solver", "pcg", "pcg|cg|pbicgstab|bicgstab|gmres|minres|jacobi|chebyshev|cr|sd")
		scheme  = flag.String("scheme", "basic", "none|basic|twolevel|onlinemv|ortho|offline")
		precN   = flag.String("precond", "bjacobi", "none|jacobi|ilu0|ic0|bjacobi|ssor")
		blocks  = flag.Int("blocks", 16, "blocks for bjacobi")
		tol     = flag.Float64("tol", 1e-8, "relative residual tolerance")
		maxIter = flag.Int("maxiter", 0, "iteration cap (0 = 10n)")
		dIntv   = flag.Int("d", 1, "detection interval")
		cdIntv  = flag.Int("cd", 10, "checkpoint interval")
		seed    = flag.Int64("seed", 1, "generator/injector seed")
		trace   = flag.Bool("trace", false, "print the fault-tolerance event timeline")
		ranks   = flag.Int("ranks", 0, "run the distributed engine over this many goroutine ranks (0 = serial); its -inject takes mvm:arith or mvm:arith-bit, count 1, and strikes element 0 of rank 0 (bit 62 for arith-bit)")
		workers = flag.Int("workers", 1, "shared-memory kernel threads for the serial engine (bitwise-identical at any count)")
		topoN   = flag.String("topo", "tree", "collective topology for -ranks: tree|linear")
		injects injectList
	)
	flag.Var(&injects, "inject", "inject an error: iter:site:kind[:count], site mvm|vlo|pco|checksum|checkpoint, kind arith|mem|cache[-bit] (repeatable)")
	flag.Parse()

	if err := run(*matrix, *n, *solverN, *scheme, *precN, *blocks, *tol, *maxIter, *dIntv, *cdIntv, *seed, *trace, *ranks, *topoN, *workers, injects); err != nil {
		fmt.Fprintln(os.Stderr, "newsum-solve:", err)
		os.Exit(1)
	}
}

func buildMatrix(kind string, n int, seed int64) (*sparse.CSR, error) {
	side := 1
	for side*side < n {
		side++
	}
	switch kind {
	case "circuit":
		return sparse.CircuitLike(n, seed), nil
	case "laplace2d":
		return sparse.Laplacian2D(side, side), nil
	case "laplace3d":
		s := 1
		for s*s*s < n {
			s++
		}
		return sparse.Laplacian3D(s, s, s), nil
	case "convdiff":
		return sparse.ConvectionDiffusion2D(side, side, 20), nil
	case "diagdom":
		return sparse.DiagDominant(n, 6, seed), nil
	default:
		a, hdr, err := mmio.ReadFile(kind)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded %s: %dx%d, %d nonzeros (%s %s)\n",
			kind, a.Rows, a.Cols, a.NNZ(), hdr.Field, hdr.Symmetry)
		return a, nil
	}
}

func buildPrecond(kind string, a *sparse.CSR, blocks int) (precond.Preconditioner, error) {
	switch kind {
	case "none":
		return precond.Identity(a.Rows), nil
	case "jacobi":
		return precond.Jacobi(a)
	case "ilu0":
		return precond.ILU0(a)
	case "ic0":
		return precond.IC0(a)
	case "bjacobi":
		return precond.BlockJacobiILU0(a, blocks)
	case "ssor":
		return precond.SSOR(a, 1.2)
	default:
		return nil, fmt.Errorf("unknown preconditioner %q", kind)
	}
}

func run(matrix string, n int, solverN, scheme, precN string, blocks int, tol float64, maxIter, d, cd int, seed int64, trace bool, ranks int, topoN string, workers int, injects injectList) error {
	a, err := buildMatrix(matrix, n, seed)
	if err != nil {
		return err
	}
	if maxIter == 0 {
		maxIter = 10 * a.Rows
	}
	if ranks > 0 {
		return runParallel(a, solverN, scheme, topoN, tol, maxIter, d, cd, ranks, injects)
	}
	m, err := buildPrecond(precN, a, blocks)
	if err != nil {
		return err
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	fmt.Printf("matrix: %dx%d, nnz=%d (c0=%.2f), precond=%s, solver=%s, scheme=%s\n",
		a.Rows, a.Cols, a.NNZ(), a.Sparsity(), m.Name(), solverN, scheme)

	var inj *fault.Injector
	if len(injects) > 0 {
		inj = fault.NewInjector(injects, seed)
	}
	var tr *core.Trace
	if trace {
		tr = &core.Trace{}
	}
	pool := kernel.NewPool(workers)
	defer pool.Close()
	opts := core.Options{
		Options:            solver.Options{Tol: tol, MaxIter: maxIter},
		DetectInterval:     d,
		CheckpointInterval: cd,
		Injector:           inj,
		Trace:              tr,
		Pool:               pool,
	}

	schemes := map[string]core.Scheme{
		"none": core.Unprotected, "basic": core.Basic, "twolevel": core.TwoLevel,
		"onlinemv": core.OnlineMV, "ortho": core.Orthogonality, "offline": core.OfflineResidual,
	}
	var res core.Result
	switch solverN {
	case "pcg", "cg", "pbicgstab", "bicgstab":
		method := core.MethodPCG
		if strings.HasSuffix(solverN, "bicgstab") {
			method = core.MethodPBiCGSTAB
		}
		sch, ok := schemes[scheme]
		if !ok {
			return fmt.Errorf("unknown scheme %q (none|basic|twolevel|onlinemv|ortho|offline)", scheme)
		}
		res, err = core.Solve(method, sch, a, m, b, opts)
	case "jacobi":
		if scheme != "basic" {
			return fmt.Errorf("jacobi demo supports -scheme basic")
		}
		res, err = core.BasicJacobi(a, b, opts)
	case "chebyshev":
		if scheme != "basic" {
			return fmt.Errorf("chebyshev demo supports -scheme basic")
		}
		// Spectral bounds from the Gershgorin circle theorem, floored away
		// from zero for the semi-iteration's [lmin, lmax] interval.
		lo, hi := a.GershgorinBounds()
		if lo < 1e-8*hi {
			lo = 1e-8 * hi
		}
		res, err = core.BasicChebyshev(a, m, b, lo, hi, opts)
	case "gmres":
		switch scheme {
		case "none":
			var sres solver.Result
			sres, err = solver.GMRES(a, m, b, 30, solver.Options{Tol: tol, MaxIter: maxIter})
			res.Result = sres
		case "basic":
			res, err = core.BasicGMRES(a, m, b, 30, opts)
		default:
			return fmt.Errorf("gmres supports -scheme none|basic")
		}
	case "minres":
		var sres solver.Result
		sres, err = solver.MINRES(a, b, solver.Options{Tol: tol, MaxIter: maxIter})
		res.Result = sres
	case "cr":
		switch scheme {
		case "none":
			var sres solver.Result
			sres, err = solver.CR(a, b, solver.Options{Tol: tol, MaxIter: maxIter})
			res.Result = sres
		case "basic":
			res, err = core.BasicCR(a, b, opts)
		default:
			return fmt.Errorf("cr supports -scheme none|basic")
		}
	case "sd":
		var sres solver.Result
		sres, err = solver.SteepestDescent(a, b, solver.Options{Tol: tol, MaxIter: maxIter})
		res.Result = sres
	default:
		return fmt.Errorf("unknown solver %q", solverN)
	}
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v iterations=%d relres=%.3e trueResid=%.3e\n",
		res.Converged, res.Iterations, res.Residual, core.TrueResidual(a, b, res.X))
	fmt.Printf("stats: updates=%d verifications=%d detections=%d corrections=%d checkpoints=%d rollbacks=%d wasted=%d injected=%d\n",
		res.Stats.ChecksumUpdates, res.Stats.Verifications, res.Stats.Detections,
		res.Stats.Corrections, res.Stats.Checkpoints, res.Stats.Rollbacks,
		res.Stats.WastedIterations, res.Stats.InjectedErrors)
	if inj != nil {
		for _, rec := range inj.Injected {
			fmt.Printf("injected: %s\n", rec)
		}
	}
	if tr != nil {
		fmt.Println("timeline:")
		if err := tr.Write(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runParallel routes the solve through the distributed goroutine-team engine
// (internal/par) and reports its fault-tolerance and collective statistics.
func runParallel(a *sparse.CSR, solverN, scheme, topoN string, tol float64, maxIter, d, cd, ranks int, injects injectList) error {
	var topo par.Topology
	switch topoN {
	case "tree":
		topo = par.Tree
	case "linear":
		topo = par.Linear
	default:
		return fmt.Errorf("unknown topology %q (tree|linear)", topoN)
	}
	opts := par.Options{
		Tol:                tol,
		MaxIter:            maxIter,
		DetectInterval:     d,
		CheckpointInterval: cd,
		Topology:           topo,
	}
	switch scheme {
	case "basic":
	case "twolevel":
		opts.TwoLevel = true
	default:
		return fmt.Errorf("-ranks supports -scheme basic|twolevel, not %q", scheme)
	}
	// The distributed engine's fault model is one arithmetic strike on one
	// element of an MVM output; map each -inject event onto it (element 0
	// of rank 0's block) and reject what it cannot model.
	for _, ev := range injects {
		if ev.Site != fault.SiteMVM || ev.Kind != fault.Arithmetic || ev.Count > 1 {
			return fmt.Errorf("-ranks supports -inject iter:mvm:arith and iter:mvm:arith-bit, one element each; got %s %s at iteration %d on %d element(s)",
				ev.Site, ev.Kind, ev.Iteration, max(ev.Count, 1))
		}
		pf := par.Fault{Iteration: ev.Iteration, Index: -1}
		if ev.BitFlip {
			pf.BitFlip, pf.Bit = true, -1
		}
		opts.Faults = append(opts.Faults, pf)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	fmt.Printf("matrix: %dx%d, nnz=%d (c0=%.2f), solver=%s, scheme=%s, ranks=%d, topo=%s\n",
		a.Rows, a.Cols, a.NNZ(), a.Sparsity(), solverN, scheme, ranks, topo)

	var res par.Result
	var err error
	switch solverN {
	case "pcg", "cg":
		res, err = par.ABFTPCG(a, b, ranks, opts)
	case "pbicgstab", "bicgstab":
		res, err = par.ABFTBiCGStab(a, b, ranks, opts)
	case "cr":
		res, err = par.ABFTCR(a, b, ranks, opts)
	default:
		return fmt.Errorf("-ranks supports pcg|bicgstab|cr, not %q", solverN)
	}
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v iterations=%d relres=%.3e trueResid=%.3e\n",
		res.Converged, res.Iterations, res.Residual, core.TrueResidual(a, b, res.X))
	fmt.Printf("stats: detections=%d corrections=%d checkpoints=%d rollbacks=%d injected=%d\n",
		res.Detections, res.Corrections, res.Checkpoints, res.Rollbacks, res.InjectedFaults)
	c := res.Comm
	fmt.Printf("comm: reductions=%d vec_reductions=%d gathers=%d broadcasts=%d barriers=%d msgs=%d words=%d\n",
		c.Reductions, c.VecReductions, c.Gathers, c.Broadcasts, c.Barriers, c.MsgsSent, c.WordsMoved)
	return nil
}
