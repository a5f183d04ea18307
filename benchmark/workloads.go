package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed the exact counts in pinned.json were taken at.
const defaultSeed = 20160531

// solveTol is the one tolerance every solve and job runs to; an output
// passes the benchmark's own check when ‖b−Ax‖/‖b‖ ≤ 10·solveTol.
const solveTol = 1e-8

// hostInfo is recorded next to every result: timings mean nothing without it.
type hostInfo struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	Caches     []string `json:"caches,omitempty"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	// Cache sizes, where the kernel exposes them; absent elsewhere.
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil {
		return h
	}
	for _, d := range dirs {
		read := func(f string) string {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	return h
}

// problem is one linear system with its preconditioner and offline
// encoding: what a solve arm, the replayed rungs and the par engine run on.
type problem struct {
	a       *CSR
	precond string
	m       Precond
	b       []float64
	method  string // "pcg" or "bicgstab"
	tol     float64
	enc     *Encoding
}

// newProblem builds the preconditioner and the encoding of a: the set-up a
// library caller pays once per operator.
func newProblem(a *CSR, precond, method string, b []float64) (*problem, error) {
	m, err := buildPrecond(precond, a)
	if err != nil {
		return nil, fmt.Errorf("benchmark: preconditioner %s: %w", precond, err)
	}
	return &problem{a: a, precond: precond, m: m, b: b, method: method, tol: solveTol, enc: newEncoding(a)}, nil
}

// scratch returns a fresh full-size vector with values of order one that
// differ by index i, for the replayed rungs.
func (p *problem) scratch(i int) []float64 {
	v := make([]float64, p.a.Rows)
	for k := range v {
		v[k] = 0.5 + float64((k*(2*i+3))%17)/16
	}
	return v
}

// footprint is the computed size in bytes of the matrix and of one vector.
func (p *problem) footprint() (matrix, vector int64) {
	return int64(16*len(p.a.Val) + 8*(p.a.Rows+1)), int64(8 * p.a.Rows)
}

// seededRHS is the right-hand side of the library workloads: ones plus
// uniform noise, so that the seed moves b and nothing about its scale.
func seededRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + rng.Float64()
	}
	return b
}

// serviceRHS is the right-hand side the service uses for a job without one.
func serviceRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return b
}

// ownResidual recomputes ‖b − A·x‖₂/‖b‖₂ with a plain CSR loop of the
// benchmark's own: no kernel, checksum or solver code of the repository
// takes part in the check of its outputs.
func ownResidual(a *CSR, b, x []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s -= a.Val[k] * x[a.ColIdx[k]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb <= 0 {
		return math.Sqrt(rr)
	}
	r := math.Sqrt(rr / bb)
	if math.IsNaN(r) {
		return math.Inf(1)
	}
	return r
}

// ownMatVec is y = A·x by the benchmark's own CSR loop: the yardstick's
// unit of work.
func ownMatVec(a *CSR, y, x []float64) {
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = s
	}
}

// cloneCSR is a deep copy of a.
func cloneCSR(a *CSR) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...), ColIdx: append([]int(nil), a.ColIdx...), Val: append([]float64(nil), a.Val...)}
}

// faultScheduleSeed draws every Scenario 2 schedule, whatever the run's
// seed. The run's seed moves the operator, the right-hand side and with
// them the iteration count the schedule spans; the strikes fall at the same
// offsets into their checkpoint intervals on every seed. Drawn from the
// run's seed, the wasted iterations alone (a sum of 30 uniform offsets)
// would move the rollback arm's time by ±5 % from seed to seed.
const faultScheduleSeed = defaultSeed

// instance is one set-up workload.
type instance interface {
	// warmup runs every arm once, untimed, and fixes what later rounds
	// are checked against.
	warmup() error
	// measure runs the timed phase for the given time into rec.
	measure(seconds float64, rec *recorder)
	// layerProblem is the operator the traced run replays its rungs on.
	layerProblem() (*problem, error)
	// jobs is the workload's operator as service traffic, for the traced
	// run's service and router rungs.
	jobs() *traffic
	close() error
}

// workload is one named set of inputs.
type workload struct {
	name string
	// what the three arms are, for the report.
	arms  [3]string
	setup func(seed int64, host hostInfo) (instance, error)
}

// opSizes are the sizes of the workloads' operators. They are chosen so that
// a round of three solves takes about half a second: a 12 s run then has
// twenty or more rounds to take its medians over, which is what keeps the
// paired ratios steady on a host whose speed drifts by ±10 % over seconds.
type opSizes struct {
	// circuit is the CircuitLike order, the Fig. 6 stand-in for G3_circuit.
	// Matrix, ILU factors and vectors (≈ 2 MB) stay resident in a 2 MiB L2.
	circuit int
	// convDiff is the ConvectionDiffusion2D grid side. Matrix, ILU factors
	// and BiCGSTAB's vectors (≈ 5 MB) do not fit in L2.
	convDiff int
	// par is the Laplacian2D grid side of the par workload and par rungs.
	par int
	// cold is the SPDRandom order of serve_mixed's cold jobs.
	cold int
}

// sizes is fixed; only the smoke test shrinks it.
var sizes = opSizes{circuit: 10000, convDiff: 150, par: 150, cold: 2000}

// Reference iteration counts. A solve's wall time is scaled by
// refIters/I, where I is the fault-free iteration count of the base arm on
// this seed's inputs, so that a seed whose system happens to need more
// iterations does not read as a slower program. The values are typical
// counts, which keeps the scaled times close to real times to solution.
const (
	circuitRefIters  = 300
	convDiffRefIters = 130
	parRefIters      = 140
)

func workloads() []workload {
	circuit := func(seed int64) (*problem, error) {
		a := genCircuit(sizes.circuit, seed)
		return newProblem(a, "bjacobi16", "pcg", seededRHS(a.Rows, seed))
	}
	circuitJobs := func(seed int64) *traffic {
		return &traffic{hot: []Request{{Solver: "pcg", Precond: "ilu0", Matrix: MatrixSpec{Kind: "circuit", N: sizes.circuit, Seed: seed}}}}
	}
	return []workload{
		{
			name: "pcg_circuit_clean",
			arms: [3]string{"core.UnprotectedPCG", "core.BasicPCG", "core.TwoLevelPCG (lazy)"},
			setup: func(seed int64, _ hostInfo) (instance, error) {
				p, err := circuit(seed)
				if err != nil {
					return nil, err
				}
				return &solveInstance{p: p, refIters: circuitRefIters, traffic: circuitJobs(seed), specs: [3]solveSpec{
					{scheme: schemeUnprotected}, {scheme: schemeBasic}, {scheme: schemeTwoLevel}}}, nil
			},
		},
		{
			name: "bicgstab_convdiff_clean",
			arms: [3]string{"core.UnprotectedPBiCGSTAB", "core.BasicPBiCGSTAB", "core.TwoLevelPBiCGSTAB (lazy)"},
			setup: func(seed int64, _ hostInfo) (instance, error) {
				a := genConvDiff(sizes.convDiff, 0.5)
				p, err := newProblem(a, "bjacobi16", "bicgstab", seededRHS(a.Rows, seed))
				if err != nil {
					return nil, err
				}
				jobs := &traffic{hot: []Request{{Solver: "bicgstab", Precond: "ilu0", Matrix: MatrixSpec{Kind: "convection", N: sizes.convDiff, Beta: 0.5}}}}
				return &solveInstance{p: p, refIters: convDiffRefIters, traffic: jobs, specs: [3]solveSpec{
					{scheme: schemeUnprotected}, {scheme: schemeBasic}, {scheme: schemeTwoLevel}}}, nil
			},
		},
		{
			name: "pcg_circuit_faults",
			arms: [3]string{"core.UnprotectedPCG, fault-free", "core.BasicPCG under Scenario 2 (rollback)", "core.BasicPCG + ForwardRecovery under Scenario 2 (repair)"},
			setup: func(seed int64, _ hostInfo) (instance, error) {
				p, err := circuit(seed)
				if err != nil {
					return nil, err
				}
				return &solveInstance{p: p, refIters: circuitRefIters, traffic: circuitJobs(seed), faults: true, specs: [3]solveSpec{
					{scheme: schemeUnprotected}, {scheme: schemeBasic}, {scheme: schemeBasic, forward: true}}}, nil
			},
		},
		{
			name:  "serve_mixed",
			arms:  [3]string{"hot job (laplace2d, cache hit)", "cold job (spd n=2000, mostly cache miss)", "hot job with one chaos fault"},
			setup: func(seed int64, host hostInfo) (instance, error) { return newServeMixed(seed, host) },
		},
		{
			name:  "router_tiny",
			arms:  [3]string{"job sent to one service", "job sent through the router", "job sent through the router with ?stream=1"},
			setup: func(seed int64, host hostInfo) (instance, error) { return newRouterTiny(seed, host) },
		},
		{
			name: "par_pcg_ranks",
			arms: [3]string{"core.BasicPCG + ILU(0), serial", fmt.Sprintf("par.ABFTPCG on %d ranks", parRanks), "par.ABFTPCG on 1 rank"},
			setup: func(seed int64, _ hostInfo) (instance, error) {
				p, err := parProblem(seed)
				if err != nil {
					return nil, err
				}
				jobs := &traffic{hot: []Request{{Solver: "pcg", Precond: "ilu0", Matrix: MatrixSpec{Kind: "laplace2d", N: sizes.par}}}}
				return &solveInstance{p: p, refIters: parRefIters, traffic: jobs, par: true, specs: [3]solveSpec{{scheme: schemeBasic}}}, nil
			},
		},
	}
}

// parProblem is the operator of the par workload and of every traced run's
// par rungs: a grid Laplacian. The rungs do not use the workload's own
// operator because the par engine does not get through the circuit
// operator: fault-free, it ends in a rollback storm there.
func parProblem(seed int64) (*problem, error) {
	a := genLaplace2D(sizes.par)
	return newProblem(a, "ilu0", "pcg", seededRHS(a.Rows, seed))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
