package par

import (
	"fmt"
	"testing"

	"newsum/internal/sparse"
)

// Edge geometry: empty ranks (size > n), one row per rank (size == n), and
// the degenerate n == 0, for both the legacy BlockRange and the Partition
// family; plus single-rank teams and empty blocks through every collective.

func TestBlockRangeEdgeGeometry(t *testing.T) {
	cases := []struct{ n, size int }{
		{3, 5},   // size > n: trailing ranks empty
		{4, 4},   // size == n: one row each
		{0, 3},   // n == 0: everyone empty
		{1, 1},   // minimal
		{5, 8},   // size > n, non-divisible
		{16, 16}, // size == n, larger
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/size=%d", tc.n, tc.size), func(t *testing.T) {
			prevHi := 0
			for r := 0; r < tc.size; r++ {
				lo, hi := BlockRange(tc.n, tc.size, r)
				if lo != prevHi {
					t.Fatalf("rank %d: gap/overlap at %d (want %d)", r, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("rank %d: negative range [%d,%d)", r, lo, hi)
				}
				prevHi = hi
			}
			if prevHi != tc.n {
				t.Fatalf("covered %d rows, want %d", prevHi, tc.n)
			}
			if tc.size == tc.n {
				for r := 0; r < tc.size; r++ {
					if lo, hi := BlockRange(tc.n, tc.size, r); hi-lo != 1 {
						t.Fatalf("size==n: rank %d owns %d rows, want 1", r, hi-lo)
					}
				}
			}
		})
	}
}

func TestPartitionEdgeGeometry(t *testing.T) {
	for _, tc := range []struct{ nx, size int }{
		{2, 7}, // size > n (n = 4)
		{2, 4}, // size == n
		{3, 9}, // size == n
		{4, 3}, // generic
	} {
		a := sparse.Laplacian2D(tc.nx, tc.nx)
		n := a.Rows
		for name, p := range map[string]Partition{
			"even": EvenPartition(n, tc.size),
			"nnz":  NnzPartition(a, tc.size),
		} {
			t.Run(fmt.Sprintf("%s/n=%d/size=%d", name, n, tc.size), func(t *testing.T) {
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				if p.Ranks() != tc.size {
					t.Fatalf("Ranks() = %d, want %d", p.Ranks(), tc.size)
				}
				total := 0
				for r := 0; r < tc.size; r++ {
					lo, hi := p.Range(r)
					total += hi - lo
				}
				if total != n {
					t.Fatalf("partition covers %d rows, want %d", total, n)
				}
				if n >= tc.size {
					for r := 0; r < tc.size; r++ {
						if lo, hi := p.Range(r); hi == lo {
							t.Fatalf("rank %d empty with n=%d >= size=%d", r, n, tc.size)
						}
					}
				}
			})
		}
	}
}

func TestPartitionZeroRows(t *testing.T) {
	empty := sparse.NewCOO(0, 0).ToCSR()
	for name, p := range map[string]Partition{
		"even": EvenPartition(0, 3),
		"nnz":  NnzPartition(empty, 3),
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := 0; r < 3; r++ {
			if lo, hi := p.Range(r); hi != lo {
				t.Fatalf("%s: rank %d non-empty on n=0", name, r)
			}
		}
	}
}

// NnzPartition must beat (or match) the even split on a skewed matrix, and
// coincide with it on a uniform one.
func TestNnzPartitionBalances(t *testing.T) {
	skewed := sparse.CircuitLike(2000, 11)
	const ranks = 8
	nnzP := NnzPartition(skewed, ranks)
	evenP := EvenPartition(skewed.Rows, ranks)
	if got, even := nnzP.NnzImbalance(skewed), evenP.NnzImbalance(skewed); got > even+1e-12 {
		t.Errorf("nnz partition imbalance %.3f worse than even split %.3f", got, even)
	}

	uniform := sparse.Laplacian2D(20, 20)
	u := NnzPartition(uniform, 4)
	if imb := u.NnzImbalance(uniform); imb > 1.10 {
		t.Errorf("uniform matrix imbalance %.3f, want near 1.0", imb)
	}
}

func TestSplitEmptyRank(t *testing.T) {
	a := sparse.Laplacian2D(1, 3) // n = 3
	const size = 5
	for r := 0; r < size; r++ {
		dm := Split(a, size, r)
		if dm.LocalRows() < 0 {
			t.Fatalf("rank %d: negative local rows", r)
		}
		x := []float64{1, 2, 3}
		y := make([]float64, dm.LocalRows())
		dm.MulVec(y, x) // must not panic on empty blocks
	}
}

// A single-rank team must run every collective as the identity, and still
// count it.
func TestSingleRankCollectives(t *testing.T) {
	for _, topo := range []Topology{Tree, Linear} {
		t.Run(topo.String(), func(t *testing.T) {
			c := NewTeamTopology(1, topo)[0]
			if got := c.AllReduceSum(3.5); got != 3.5 {
				t.Errorf("AllReduceSum: %v", got)
			}
			src := []float64{1, 2, 3}
			dst := make([]float64, 3)
			c.AllReduceVec(dst, src)
			for i := range src {
				if dst[i] != src[i] {
					t.Errorf("AllReduceVec[%d]: %v", i, dst[i])
				}
			}
			global := make([]float64, 3)
			c.AllGather(global, src, 0)
			for i := range src {
				if global[i] != src[i] {
					t.Errorf("AllGather[%d]: %v", i, global[i])
				}
			}
			c.Barrier()
			st := c.Stats()
			if st.Reductions != 1 || st.VecReductions != 1 || st.Gathers != 1 || st.Barriers != 1 {
				t.Errorf("single-rank stats not counted: %+v", st)
			}
			if st.MsgsSent != 0 {
				t.Errorf("single-rank team sent %d messages", st.MsgsSent)
			}
		})
	}
}

// AllGather with an empty local block (size > n) must still assemble the
// full vector on every rank, on both topologies and a non-power-of-two
// team.
func TestAllGatherEmptyBlocks(t *testing.T) {
	const n, ranks = 2, 3
	for _, topo := range []Topology{Tree, Linear} {
		t.Run(topo.String(), func(t *testing.T) {
			comms := NewTeamTopology(ranks, topo)
			ch := make(chan []float64, ranks)
			for r := 0; r < ranks; r++ {
				go func(c *Comm) {
					lo, hi := BlockRange(n, ranks, c.Rank())
					local := make([]float64, hi-lo)
					for i := range local {
						local[i] = float64(lo + i + 1)
					}
					g := make([]float64, n)
					c.AllGather(g, local, lo)
					ch <- g
				}(comms[r])
			}
			for i := 0; i < ranks; i++ {
				g := <-ch
				for j := 0; j < n; j++ {
					if g[j] != float64(j+1) {
						t.Fatalf("gathered[%d] = %v, want %d", j, g[j], j+1)
					}
				}
			}
		})
	}
}

// Tree and Linear collectives must agree on every team size that exercises
// the fold-in/fold-out path (non powers of two) and the doubling rounds.
func TestTopologyEquivalenceAllSizes(t *testing.T) {
	const n = 17
	for size := 1; size <= 6; size++ {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			got := map[Topology][][]float64{}
			for _, topo := range []Topology{Tree, Linear} {
				comms := NewTeamTopology(size, topo)
				ch := make(chan []float64, size)
				for r := 0; r < size; r++ {
					go func(c *Comm) {
						rank := float64(c.Rank())
						sum := c.AllReduceSum(rank + 1)
						lo, hi := BlockRange(n, size, c.Rank())
						local := make([]float64, hi-lo)
						for i := range local {
							local[i] = float64(lo+i) * 0.5
						}
						g := make([]float64, n)
						c.AllGather(g, local, lo)
						src := []float64{rank, 2 * rank, 1}
						red := make([]float64, 3)
						c.AllReduceVec(red, src)
						c.Barrier()
						out := append([]float64{sum}, red...)
						ch <- append(out, g...)
					}(comms[r])
				}
				for i := 0; i < size; i++ {
					got[topo] = append(got[topo], <-ch)
				}
			}
			// Every rank's results must be identical across ranks (they are
			// replicated collectives) and across topologies.
			want := got[Tree][0]
			for _, topo := range []Topology{Tree, Linear} {
				for r, out := range got[topo] {
					for j := range want {
						if out[j] != want[j] {
							t.Fatalf("%v rank-slot %d: out[%d] = %v, want %v", topo, r, j, out[j], want[j])
						}
					}
				}
			}
		})
	}
}
