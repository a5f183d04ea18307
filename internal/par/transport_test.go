package par

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"testing"

	"newsum/internal/sparse"
)

// The transport tests hold the Tree collectives to a serial reference bit
// for bit and to the closed-form recursive-doubling message counts, so the
// mailbox under Comm.send/recv can change while the algorithm — association
// order, messages, words — provably does not.

// transportVal is rank r's contribution to collective step i: irregular
// enough that a different association order shows in the last bits.
func transportVal(r, i int) float64 {
	return math.Sin(float64(131*r+i))*1e3 + 1/float64(r+i+1)
}

// transportBounds is an uneven partition with empty blocks (rank 4).
func transportBounds(p int) []int {
	b := make([]int, p+1)
	for r := 0; r < p; r++ {
		b[r+1] = b[r] + (3*r+2)%7
	}
	return b
}

// refAllReduce is the recursive-doubling sum tree written serially: fold the
// ranks beyond the power-of-two core in, then pairwise rounds.
func refAllReduce(vals []float64) float64 {
	p := len(vals)
	core := coreSize(p)
	v := append([]float64(nil), vals[:core]...)
	for r := 0; r < p-core; r++ {
		v[r] += vals[r+core]
	}
	for mask := 1; mask < core; mask <<= 1 {
		next := make([]float64, core)
		for r := range v {
			next[r] = v[r] + v[r^mask]
		}
		v = next
	}
	return v[0]
}

// wantStats is the closed form of what rank r sends over `each` calls of
// every collective in the mixed sequence (vector length m).
func wantStats(p, r, each, m int, bounds []int) CommStats {
	st := CommStats{Barriers: each, Reductions: each, VecReductions: each, Gathers: each}
	if p == 1 {
		return st
	}
	core := coreSize(p)
	rem, rounds := p-core, bits.Len(uint(core))-1
	n := bounds[p]
	blk := func(q int) int { return bounds[q+1] - bounds[q] }
	// Scalar and vector all-reduce: one message per doubling round, one
	// more to echo the result to a folded-in rank; a folded-in rank sends
	// its contribution and nothing else.
	msgs := 1
	gatherWords := blk(r)
	if r < core {
		msgs = rounds
		if r < rem {
			msgs++
		}
		// Before the round with mask 2^j the rank holds the blocks of its
		// aligned group of 2^j core ranks and of the ranks folded into them.
		gatherWords = 0
		for j := 0; j < rounds; j++ {
			for q := r >> j << j; q < (r>>j+1)<<j; q++ {
				gatherWords += blk(q)
				if q < rem {
					gatherWords += blk(q + core)
				}
			}
		}
		if r < rem {
			gatherWords += n
		}
	}
	st.MsgsSent = int64(each * 3 * msgs)
	st.WordsMoved = int64(each * (msgs + m*msgs + gatherWords))
	// Dissemination barrier: ceil(log2 p) tokens, no payload.
	st.MsgsSent += int64(each * bits.Len(uint(p-1)))
	return st
}

func TestTransportMixedCollectives(t *testing.T) {
	const steps, m = 1000, 7
	for _, procs := range []int{1, 2, 4} {
		for _, p := range []int{1, 2, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("procs=%d/ranks=%d", procs, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				bounds := transportBounds(p)
				n := bounds[p]
				comms := NewTeam(p)
				errs := make([]error, p)
				var wg sync.WaitGroup
				for r := range comms {
					wg.Add(1)
					go func(c *Comm) {
						defer wg.Done()
						errs[c.Rank()] = transportRank(c, steps, m, bounds)
					}(comms[r])
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
					if got, want := comms[r].Stats(), wantStats(p, r, steps/4, m, bounds); got != want {
						t.Errorf("rank %d of %d (n=%d): stats %+v, want %+v", r, p, n, got, want)
					}
				}
			})
		}
	}
}

// transportRank runs one rank's share of the mixed sequence and checks every
// result against the serial reference, which each rank computes for itself
// from the deterministic inputs.
func transportRank(c *Comm, steps, m int, bounds []int) error {
	p, r := c.Size(), c.Rank()
	n := bounds[p]
	vals := make([]float64, p)
	src, dst := make([]float64, m), make([]float64, m)
	local, global := make([]float64, bounds[r+1]-bounds[r]), make([]float64, n)
	for i := 0; i < steps; i++ {
		switch i % 4 {
		case 0:
			for q := range vals {
				vals[q] = transportVal(q, i)
			}
			if got, want := c.AllReduceSum(vals[r]), refAllReduce(vals); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("step %d AllReduceSum = %x, want %x", i, math.Float64bits(got), math.Float64bits(want))
			}
		case 1:
			for j := range src {
				src[j] = transportVal(r, i+j)
			}
			c.AllReduceVec(dst, src)
			for j := range dst {
				for q := range vals {
					vals[q] = transportVal(q, i+j)
				}
				if want := refAllReduce(vals); math.Float64bits(dst[j]) != math.Float64bits(want) {
					return fmt.Errorf("step %d AllReduceVec[%d] = %v, want %v", i, j, dst[j], want)
				}
			}
			// The caller owns src again as soon as the call returns.
			clear(src)
		case 2:
			for j := range local {
				local[j] = transportVal(bounds[r]+j, i)
			}
			clear(global)
			c.AllGather(global, local, bounds[r])
			for j := range global {
				if want := transportVal(j, i); math.Float64bits(global[j]) != math.Float64bits(want) {
					return fmt.Errorf("step %d AllGather[%d] = %v, want %v", i, j, global[j], want)
				}
			}
			// A rank that runs ahead overwrites its block while slower
			// peers may still be placing this gather's segments.
			clear(local)
		case 3:
			c.Barrier()
		}
	}
	return nil
}

// teamAllocs reports the mallocs per round — all ranks together — of a team
// of p running round on every rank in lockstep, after warm-up rounds have
// grown the payload buffers of both parities (AllocsPerRun adds a third).
func teamAllocs(p int, round func(c *Comm)) float64 {
	const warm, runs = 2, 200
	comms := NewTeam(p)
	var wg sync.WaitGroup
	for _, c := range comms[1:] {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			for i := 0; i <= warm+runs; i++ {
				round(c)
			}
		}(c)
	}
	for i := 0; i < warm; i++ {
		round(comms[0])
	}
	allocs := testing.AllocsPerRun(runs, func() { round(comms[0]) })
	wg.Wait()
	return allocs
}

// TestCollectivesSteadyStateZeroAllocs: once a team has run a collective
// its payload buffers exist, and no later call allocates on any rank.
func TestCollectivesSteadyStateZeroAllocs(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		bounds := transportBounds(p)
		rounds := map[string]func(c *Comm){
			"AllReduceSum": func(c *Comm) { c.AllReduceSum(float64(c.Rank())) },
			"Barrier":      func(c *Comm) { c.Barrier() },
		}
		// One caller-owned set of arguments per rank, made before the run.
		vecs, locals, globals := make([][]float64, p), make([][]float64, p), make([][]float64, p)
		for r := 0; r < p; r++ {
			vecs[r], locals[r], globals[r] = make([]float64, 64), make([]float64, bounds[r+1]-bounds[r]), make([]float64, bounds[p])
		}
		rounds["AllReduceVec"] = func(c *Comm) { c.AllReduceVec(vecs[c.Rank()], vecs[c.Rank()]) }
		rounds["AllGather"] = func(c *Comm) { c.AllGather(globals[c.Rank()], locals[c.Rank()], bounds[c.Rank()]) }
		for name, round := range rounds {
			if allocs := teamAllocs(p, round); allocs != 0 {
				t.Errorf("%s on %d ranks: %v allocs per call, want 0", name, p, allocs)
			}
		}
	}
}

// parentSolveMallocs is what one 2-rank ABFTPCG on Laplacian2D(40), run to
// 1e-12 (65 iterations, 1 310 messages), cost at the commit before the
// mailbox (0a0d837), where every scalar message was a one-element slice and
// every gather a fresh copy of the block: the median of 20 solves measured
// as TestSolveMallocsAgainstParent measures them. (At the default 1e-8 —
// 48 iterations — it was 1 713.)
const parentSolveMallocs = 2137

// TestSolveMallocsAgainstParent: a whole solve now allocates its per-solve
// set-up (the ranks' vectors and engines; the factors, schedules and
// encoded stage rows come from the set-up memo once admitted, par/setup.go)
// and its checkpoints (about five a save), and nothing per message — an
// eighth of the parent's count at most.
func TestSolveMallocsAgainstParent(t *testing.T) {
	a := sparse.Laplacian2D(40, 40)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	var before, after runtime.MemStats
	counts := make([]uint64, 20)
	for i := range counts {
		runtime.ReadMemStats(&before)
		if _, err := ABFTPCG(a, b, 2, Options{Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(counts)
	got := counts[len(counts)/2]
	t.Logf("mallocs per solve: median %d, parent %d", got, parentSolveMallocs)
	if got > parentSolveMallocs/8 {
		t.Errorf("2-rank solve: %d mallocs, want at most an eighth of the parent's %d", got, parentSolveMallocs)
	}
}
