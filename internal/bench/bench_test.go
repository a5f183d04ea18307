package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/model"
)

func TestWorkloadConstructors(t *testing.T) {
	w, err := CircuitPCG(900, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Method != core.MethodPCG || w.A.Rows != 900 {
		t.Fatalf("circuit workload: %+v", w.Name)
	}
	w2, err := ConvectionPBiCGSTAB(10, 10, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Method != core.MethodPBiCGSTAB {
		t.Fatalf("convection workload method")
	}
	w3, err := LaplacePCG(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w3.A.Rows != 100 {
		t.Fatalf("laplace workload order")
	}
}

func TestRunSchemeDispatch(t *testing.T) {
	w, err := LaplacePCG(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheme{
		core.Unprotected, core.Basic, core.TwoLevel, core.OnlineMV,
		core.Orthogonality, core.OfflineResidual,
	} {
		res, dur, err := RunScheme(w, s, w.baseOptions())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.Converged || dur <= 0 {
			t.Fatalf("%v: converged=%v dur=%v", s, res.Converged, dur)
		}
	}
	// Orthogonality is structurally unavailable for BiCGSTAB.
	wb, err := ConvectionPBiCGSTAB(8, 8, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunScheme(wb, core.Orthogonality, wb.baseOptions()); err == nil {
		t.Fatalf("orthogonality scheme accepted for BiCGSTAB")
	}
	for _, s := range []core.Scheme{core.Basic, core.TwoLevel, core.OnlineMV, core.OfflineResidual} {
		if _, _, err := RunScheme(wb, s, wb.baseOptions()); err != nil {
			t.Fatalf("PBiCGSTAB %v: %v", s, err)
		}
	}
}

func TestInjectorFor(t *testing.T) {
	if InjectorFor(ErrorFree, 100, 10, 1) != nil {
		t.Fatalf("error-free scenario must have no injector")
	}
	if inj := InjectorFor(S1, 100, 10, 1); inj == nil || !inj.Pending() {
		t.Fatalf("S1 injector empty")
	}
	inj3 := InjectorFor(S3, 100, 10, 1)
	if inj3 == nil || !inj3.Refire {
		t.Fatalf("S3 must refire")
	}
	for _, s := range Scenarios() {
		if s.String() == "unknown" {
			t.Fatalf("scenario name missing")
		}
	}
}

// TestTable3MatchesPaper pins the full Yes/No pattern of the paper's
// Table 3 — the coverage headline of the whole design.
func TestTable3MatchesPaper(t *testing.T) {
	w, err := LaplacePCG(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Table3(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Scheme]map[fault.Kind]bool{
		core.OfflineResidual: {fault.Arithmetic: true, fault.Memory: true, fault.CacheRegister: true},
		core.OnlineMV:        {fault.Arithmetic: true, fault.Memory: true, fault.CacheRegister: false},
		core.Orthogonality:   {fault.Arithmetic: true, fault.Memory: true, fault.CacheRegister: false},
		core.Basic:           {fault.Arithmetic: true, fault.Memory: true, fault.CacheRegister: true},
		core.TwoLevel:        {fault.Arithmetic: true, fault.Memory: true, fault.CacheRegister: true},
	}
	for scheme, kinds := range want {
		for kind, protected := range kinds {
			got := r.Cells[scheme][kind]
			if got.Protected != protected {
				t.Errorf("%v / %v: got %v (detections=%d corrections=%d err=%v), paper says %v",
					scheme, kind, got.Protected, got.Detections, got.Corrections, got.Err, protected)
			}
		}
	}
	if !r.JacobiWorks {
		t.Errorf("generality demo failed: basic ABFT should protect Jacobi")
	}
	var buf bytes.Buffer
	WriteTable3(&buf, r)
	if !strings.Contains(buf.String(), "Can protect cache or register bit flips") {
		t.Errorf("rendered table incomplete")
	}
}

func TestWriteTable4And5(t *testing.T) {
	var buf bytes.Buffer
	WriteTable4(&buf, 1, 12, 4.8)
	out := buf.String()
	if !strings.Contains(out, "does not terminate") {
		t.Errorf("Table 4 missing the Scenario-3 Inf entry")
	}
	buf.Reset()
	WriteTable5(&buf, model.Stampede(), 2000, 1000)
	if !strings.Contains(buf.String(), "lambda") {
		t.Errorf("Table 5 header missing")
	}
	rows := Table5(model.Stampede(), 2000, 1000)
	if len(rows) != 3 {
		t.Fatalf("Table 5 rows: %d", len(rows))
	}
	if rows[1].PCGD != 1 || rows[1].PCGCD < 8 || rows[1].PCGCD > 16 {
		t.Errorf("lambda=1 PCG optimum (%d,%d), paper reports (12,1)", rows[1].PCGCD, rows[1].PCGD)
	}
	if rows[2].PCGCD != 1 {
		t.Errorf("lambda=10 PCG cd=%d, paper reports 1", rows[2].PCGCD)
	}
	if rows[0].PCGCD < rows[1].PCGCD {
		t.Errorf("cd must shrink as lambda grows")
	}
}

func TestWriteFigure5(t *testing.T) {
	var buf bytes.Buffer
	WriteFigure5(&buf, model.Stampede(), 2000)
	out := buf.String()
	if !strings.Contains(out, "(a) PCG") || !strings.Contains(out, "(b) PBiCGSTAB") {
		t.Errorf("Figure 5 must have both panels")
	}
	if !strings.Contains(out, "optimal (cd,d)") {
		t.Errorf("Figure 5 missing the optimum")
	}
}

// TestProjectOverheadsShape pins the Table-4 projected orderings that
// Figs. 8–9 display for both machines.
func TestProjectOverheadsShape(t *testing.T) {
	for _, m := range model.Machines() {
		fig := ProjectOverheads(m, core.MethodPCG, 1, 12, 4.8)
		if !math.IsInf(fig.Overhead["basic"][S3], 1) {
			t.Errorf("%s: basic must not terminate under S3", m.Name)
		}
		if fig.Overhead["basic"][S1] >= fig.Overhead["two-level/eager"][S1] {
			t.Errorf("%s S1: basic should be cheapest (paper conclusion 1)", m.Name)
		}
		if fig.Overhead["two-level/eager"][S2] >= fig.Overhead["online-MV"][S2] {
			t.Errorf("%s S2: two-level should beat online MV (paper conclusion 2)", m.Name)
		}
		if fig.Overhead["two-level/eager"][S3] >= fig.Overhead["online-MV"][S3] {
			t.Errorf("%s S3: two-level should beat online MV (paper conclusion 3)", m.Name)
		}
		var buf bytes.Buffer
		WriteProjectedFigure(&buf, "test", fig)
		if !strings.Contains(buf.String(), "Inf") {
			t.Errorf("%s: rendered projection missing Inf", m.Name)
		}
	}
}

func TestMeasureHostCosts(t *testing.T) {
	w, err := LaplacePCG(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureHostCosts(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("measured costs invalid: %v (%+v)", err, c)
	}
	if c.Iter <= 0 || c.Detect <= 0 || c.Checkpoint <= 0 || c.Recover <= 0 {
		t.Fatalf("non-positive measurements: %+v", c)
	}
}

func TestFigureOverheadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	w, err := CircuitPCG(2500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := FigureOverheads(w, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 3 must storm the basic scheme and spare the others.
	if !math.IsInf(fig.Overhead["basic"][S3], 1) {
		t.Errorf("basic should not terminate under S3")
	}
	for _, label := range []string{"two-level/eager", "two-level/lazy", "online-MV"} {
		if math.IsInf(fig.Overhead[label][S3], 1) {
			t.Errorf("%s should terminate under S3", label)
		}
	}
	var buf bytes.Buffer
	WriteOverheadFigure(&buf, "test", fig)
	if !strings.Contains(buf.String(), "scenario 3") {
		t.Errorf("rendered figure incomplete")
	}
}

func TestFigure10Small(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	w, err := CircuitPCG(2500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure10(w, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cases) != 6 {
		t.Fatalf("cases: %d", len(fig.Cases))
	}
	for _, c := range fig.Cases {
		// Correctness of recovery is the hard requirement; relative
		// timing on a tiny workload is noise.
		st := c.Stats["basic"]
		if st.Rollbacks == 0 {
			t.Errorf("k=%d: basic never rolled back", c.K)
		}
		if c.Stats["two-level/lazy"].Corrections == 0 {
			t.Errorf("k=%d: two-level never corrected", c.K)
		}
	}
	var buf bytes.Buffer
	WriteFigure10(&buf, fig)
	if !strings.Contains(buf.String(), "4 MVM err") {
		t.Errorf("rendered figure incomplete")
	}
}
