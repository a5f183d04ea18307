package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"newsum/internal/model"
)

// WriteTable4 renders the theoretical per-iteration overhead comparison of
// Table 4 at the given intervals and sparsity, both in op units and — using
// the Stampede per-operation times — in milliseconds per iteration, with
// the §6.2 ranking per scenario.
func WriteTable4(out io.Writer, d, cd int, c0 float64) error {
	m := model.Stampede()
	var s sink
	s.printf(out, "Table 4: theoretical per-iteration overhead (d=%d, cd=%d, c0=nnz/n=%.1f)\n", d, cd, c0)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.printf(tw, "scenario\tbasic (O1)\ttwo-level (O2)\tonline MV (O3)\tranking (cheapest first)\n")
	for _, sc := range []model.Scenario{model.Scenario1, model.Scenario2, model.Scenario3} {
		o1, o2, o3 := model.Table4Costs(sc, d, cd, c0)
		s.printf(tw, "%s\t%s\t%s\t%s\t%v\n",
			sc, opString(o1, m.Ops), opString(o2, m.Ops), opString(o3, m.Ops),
			model.Ranking(sc, d, cd, c0, m.Ops))
	}
	s.flush(tw)
	return s.err
}

func opString(o model.OpCount, t model.OpTimes) string {
	if o.Infinite {
		return "+Inf (does not terminate)"
	}
	parts := ""
	add := func(v float64, unit string) {
		if v == 0 {
			return
		}
		if parts != "" {
			parts += "+"
		}
		parts += fmt.Sprintf("%.2g%s", v, unit)
	}
	add(o.MVM, "MVM")
	add(o.PCO, "PCO")
	add(o.VDP, "VDP")
	add(o.VLO, "VLO")
	if parts == "" {
		parts = "0"
	}
	return fmt.Sprintf("%s = %.3fms", parts, 1e3*o.Seconds(t))
}

// Table5Row is one optimal-interval entry.
type Table5Row struct {
	Lambda float64
	PCGCD  int
	PCGD   int
	BiCGCD int
	BiCGD  int
}

// Table5 computes the optimal (cd, d) pairs of Table 5 from the Eq. (5)
// model for both solvers at the paper's three error rates, using the given
// machine profile and I total iterations.
func Table5(m model.Machine, iters, maxCD int) []Table5Row {
	lambdas := []float64{1e-2, 1, 10}
	rows := make([]Table5Row, 0, len(lambdas))
	for _, lam := range lambdas {
		cd1, d1, _ := model.Optimize(m.PCG, lam, iters, maxCD)
		cd2, d2, _ := model.Optimize(m.PBiCGSTAB, lam, iters, maxCD)
		rows = append(rows, Table5Row{Lambda: lam, PCGCD: cd1, PCGD: d1, BiCGCD: cd2, BiCGD: d2})
	}
	return rows
}

// WriteTable5 renders the optimal (cd, d) table.
func WriteTable5(out io.Writer, m model.Machine, iters, maxCD int) error {
	var s sink
	s.printf(out, "Table 5: optimal (cd, d) for basic online ABFT (%s profile, I=%d, cd<=%d)\n", m.Name, iters, maxCD)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.printf(tw, "lambda\tPCG\tPBiCGSTAB\n")
	for _, r := range Table5(m, iters, maxCD) {
		s.printf(tw, "%g\t(%d, %d)\t(%d, %d)\n", r.Lambda, r.PCGCD, r.PCGD, r.BiCGCD, r.BiCGD)
	}
	s.flush(tw)
	return s.err
}

// WriteFigure5 renders the Fig. 5 expected-execution-time landscape
// E(cd, d) at λ = 1 for PCG (a) and PBiCGSTAB (b): one row per cd, one
// column per d, with the optimum marked.
func WriteFigure5(out io.Writer, m model.Machine, iters int) error {
	var s sink
	for _, part := range []struct {
		label string
		costs model.OpCosts
	}{
		{"(a) PCG", m.PCG},
		{"(b) PBiCGSTAB", m.PBiCGSTAB},
	} {
		bestCD, bestD, bestE := model.Optimize(part.costs, 1.0, iters, 40)
		s.printf(out, "Figure 5%s: expected execution time E(cd,d), lambda=1.0, I=%d (%s profile)\n",
			part.label, iters, m.Name)
		s.printf(out, "optimal (cd,d) = (%d,%d), E = %.2fs\n", bestCD, bestD, bestE)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		s.printf(tw, "cd\\d\t1\t2\t4\t8\n")
		for cd := 2; cd <= 40; cd += 2 {
			s.printf(tw, "%d\t", cd)
			for _, d := range []int{1, 2, 4, 8} {
				e := model.ExpectedTime(part.costs, 1.0, iters, cd, d)
				mark := ""
				if cd == bestCD && d == bestD {
					mark = "*"
				}
				if math.IsInf(e, 1) {
					s.printf(tw, "-\t")
				} else {
					s.printf(tw, "%.2f%s\t", e, mark)
				}
			}
			s.println(tw)
		}
		s.flush(tw)
	}
	return s.err
}
