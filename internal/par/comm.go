// Package par is the parallel execution substrate standing in for the
// paper's MPI/PETSc runs on 2048 Stampede cores: goroutine "ranks" joined
// by message-passing collectives (barrier, all-reduce, all-gather,
// broadcast), a row-partitioned distributed sparse matrix, and a family of
// distributed ABFT solvers — PCG, BiCGStab and CR — built on a shared
// per-rank engine whose checkpoints and checksum state are rank-local, the
// property §5.1 highlights for scalability ("all the checkpoints and
// checksums are saved locally").
package par

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"newsum/internal/vec"
)

// Topology selects the collective algorithm family of a team.
type Topology int

const (
	// Tree is the default: recursive-doubling all-reduce and all-gather,
	// binomial-tree broadcast, and a dissemination barrier — O(log P)
	// rounds of pairwise channel exchanges, no shared accumulator. The
	// reduction combines block sums with the same association tree on
	// every rank (IEEE-754 addition is commutative), so all ranks obtain
	// bitwise-identical results and the solvers' replicated control flow
	// stays in lockstep.
	Tree Topology = iota
	// Linear is the original rendezvous implementation: every rank funnels
	// through one mutex-guarded accumulator, O(P) serialization per
	// collective. It is kept as the baseline the collective benchmarks
	// compare against.
	Linear
)

func (t Topology) String() string {
	switch t {
	case Tree:
		return "tree"
	case Linear:
		return "linear"
	default:
		return "unknown"
	}
}

// CommStats counts the communication work one rank performed. Every
// counter is rank-local (written only by the owning goroutine); sum the
// ranks' stats for team totals.
type CommStats struct {
	// Barriers counts explicit Barrier calls.
	Barriers int
	// Reductions counts scalar all-reduces — the dominant collective of
	// the ABFT solvers (dot products, global checksum probes).
	Reductions int
	// VecReductions counts vector all-reduces (setup-time checksum-row
	// assembly).
	VecReductions int
	// Gathers counts all-gathers (the halo exchange of each distributed
	// MVM).
	Gathers int
	// Broadcasts counts broadcast collectives.
	Broadcasts int
	// MsgsSent counts point-to-point messages this rank sent (Tree), or
	// rendezvous phases it entered (Linear).
	MsgsSent int64
	// WordsMoved counts float64 payload words this rank sent.
	WordsMoved int64
}

// Merge adds o's counters into s.
func (s *CommStats) Merge(o CommStats) {
	s.Barriers += o.Barriers
	s.Reductions += o.Reductions
	s.VecReductions += o.VecReductions
	s.Gathers += o.Gathers
	s.Broadcasts += o.Broadcasts
	s.MsgsSent += o.MsgsSent
	s.WordsMoved += o.WordsMoved
}

// Collectives returns the total number of collective operations counted.
func (s CommStats) Collectives() int {
	return s.Barriers + s.Reductions + s.VecReductions + s.Gathers + s.Broadcasts
}

// segment is one rank's contiguous block of a distributed vector in
// flight: global[off:off+len(data)] = data.
type segment struct {
	off  int
	data []float64
}

// message is one point-to-point payload. Exactly one of val/data/segs is
// meaningful per collective; barrier tokens carry none. data and segs point
// into the sender's payload buffers (Comm.buf, segBuf): the sender alone
// writes them, and not again before every rank has left the collective that
// sent them, so forwarding them (all-gather) is safe.
type message struct {
	val  float64
	data []float64
	segs []segment
}

// team is the shared state of one communicator group.
type team struct {
	size int
	topo Topology

	// Rendezvous state (Linear topology).
	mu     sync.Mutex
	cond   *sync.Cond
	gen    int
	cnt    int
	sum    float64
	result float64
	vecAcc []float64
	gather []float64

	// Point-to-point mesh (Tree topology): ch[from][to] is the mailbox of
	// the ordered pair, written by rank `from` and polled, then blocked on,
	// by rank `to` (Comm.recv). Capacity 2 with at most one message per
	// ordered pair per collective makes a send-blocked cycle require a
	// strictly decreasing chain of collective indices around the cycle —
	// impossible — so the mesh is deadlock-free.
	ch [][]chan message
}

// Comm is one rank's handle on a communicator of Size() ranks. All
// collective calls must be made by every rank of the team (they block
// until the whole team arrives), in the same order on every rank. A Comm
// must be used by a single goroutine.
type Comm struct {
	rank  int
	t     *team
	stats CommStats

	// Payload buffers of the Tree vector collectives, grown on first use:
	// the partial sums an AllReduceVec sends, or the copy of this rank's
	// block and the segment list an AllGather sends. Peers read them until
	// they leave the collective, and a rank can enter the next one — but not
	// the one after, whose result needs every rank's contribution to the
	// next — while a peer is still inside: a pair, by vecCalls' parity.
	buf      [2][]float64
	segBuf   [2][]segment
	vecCalls uint
}

// payload returns this call's payload buffer, n words, and its parity.
func (c *Comm) payload(n int) ([]float64, uint) {
	par := c.vecCalls & 1
	c.vecCalls++
	if cap(c.buf[par]) < n {
		c.buf[par] = make([]float64, n)
	}
	return c.buf[par][:n], par
}

// NewTeam creates a communicator team of the given size with the default
// Tree topology and returns one Comm per rank.
func NewTeam(size int) []*Comm {
	return NewTeamTopology(size, Tree)
}

// NewTeamTopology creates a communicator team with an explicit collective
// topology.
func NewTeamTopology(size int, topo Topology) []*Comm {
	if size < 1 {
		panic("par: team size must be >= 1")
	}
	t := &team{size: size, topo: topo}
	switch topo {
	case Linear:
		t.cond = sync.NewCond(&t.mu)
	case Tree:
		t.ch = make([][]chan message, size)
		for from := range t.ch {
			t.ch[from] = make([]chan message, size)
			for to := range t.ch[from] {
				if to != from {
					t.ch[from][to] = make(chan message, 2)
				}
			}
		}
	default:
		panic("par: unknown topology")
	}
	comms := make([]*Comm, size)
	for r := range comms {
		comms[r] = &Comm{rank: r, t: t}
		if topo == Tree {
			segs := make([]segment, 2*size)
			comms[r].segBuf = [2][]segment{segs[:0:size], segs[size:size]}
		}
	}
	return comms
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the team.
func (c *Comm) Size() int { return c.t.size }

// Topology returns the team's collective topology.
func (c *Comm) Topology() Topology { return c.t.topo }

// Stats returns a snapshot of this rank's communication counters.
func (c *Comm) Stats() CommStats { return c.stats }

// ResetStats zeroes this rank's communication counters.
func (c *Comm) ResetStats() { c.stats = CommStats{} }

// send hands m, a payload of the given number of words, to rank `to`.
//
//hot:loop every Tree collective is a few sends and receives
func (c *Comm) send(to int, m message, words int) {
	c.stats.MsgsSent++
	c.stats.WordsMoved += int64(words)
	c.t.ch[c.rank][to] <- m
}

// pollBudget is how long recv polls a mailbox, yielding between polls,
// before it parks on it: about what a park and its wake-up cost on the
// reference host (2 vCPUs). A 2-rank PCG on Laplacian2D(150) — 3 400
// collectives; the serial engine takes 110 ms — takes 133 ms parking at
// once (a late wake-up makes the peer park at the next collective), 97 ms
// polling 20 µs, 94 ms 50 µs, 85 ms 100 µs. The yield is load-bearing: a
// rank made runnable on the poller's own P gets it only when the poller lets
// go. Without runtime.Gosched, 4 ranks on 2 Ps take 256 ms against 112, 2
// ranks on one P 284 against 119, beside a busy neighbour 238 against 164.
const pollBudget = 100 * time.Microsecond

// recv returns the next message from rank `from`: poll, yield, poll, …, and
// once the budget is spent block on the channel.
//
//hot:loop every Tree collective is a few sends and receives
func (c *Comm) recv(from int) message {
	ch := c.t.ch[from][c.rank]
	for start := time.Now(); time.Since(start) < pollBudget; runtime.Gosched() {
		select {
		case m := <-ch:
			return m
		default:
		}
	}
	return <-ch
}

// coreSize returns the largest power of two not exceeding p — the
// recursive-doubling core; ranks beyond it fold their contribution in and
// receive the result back.
func coreSize(p int) int {
	core := 1
	for core*2 <= p {
		core *= 2
	}
	return core
}

// arrive is the Linear rendezvous: body runs under the team lock for every
// arriving rank; the last arrival runs last (also under the lock),
// advances the generation and wakes the team.
func (c *Comm) arrive(body func(t *team), last func(t *team)) {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if body != nil {
		body(t)
	}
	t.cnt++
	if t.cnt == t.size {
		if last != nil {
			last(t)
		}
		t.cnt = 0
		t.gen++
		t.cond.Broadcast()
		return
	}
	gen := t.gen
	for gen == t.gen {
		t.cond.Wait()
	}
}

// barrier blocks until every rank has entered, without touching the
// Barriers counter (collective-internal rendezvous under Linear).
func (c *Comm) barrier() {
	if c.t.size == 1 {
		return
	}
	if c.t.topo == Linear {
		c.arrive(nil, nil)
		return
	}
	// Dissemination barrier: ceil(log2 P) token rounds.
	p := c.t.size
	//hot:loop a Tree collective
	for k := 1; k < p; k <<= 1 {
		c.send((c.rank+k)%p, message{}, 0)
		c.recv((c.rank - k + p) % p)
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.stats.Barriers++
	c.barrier()
}

// AllReduceSum returns the sum of v over all ranks, on every rank — the
// collective behind distributed dot products and global checksum probes.
// Every rank receives the bitwise-identical result.
func (c *Comm) AllReduceSum(v float64) float64 {
	c.stats.Reductions++
	if c.t.size == 1 {
		return v
	}
	if c.t.topo == Linear {
		return c.allReduceSumLinear(v)
	}
	return c.allReduceSumTree(v)
}

//hot:cold the O(P) comparison baseline: its rendezvous closures allocate
func (c *Comm) allReduceSumLinear(v float64) float64 {
	c.stats.MsgsSent++
	c.stats.WordsMoved++
	c.arrive(
		func(t *team) {
			if t.cnt == 0 {
				t.sum = 0
			}
			t.sum += v
		},
		func(t *team) { t.result = t.sum },
	)
	// result is stable until the next reducing collective, which this rank
	// cannot start before every rank has left (each later collective has
	// its own generation); reading it here is race-free because arrive
	// released the lock only after result was written.
	c.t.mu.Lock()
	r := c.t.result
	c.t.mu.Unlock()
	return r
}

// allReduceSumTree is the recursive-doubling scalar all-reduce with the
// standard fold for non-power-of-two team sizes. After round k every rank
// of a 2^k block holds the same block sum (addition is commutative), so
// the final value is identical on every rank.
//
//hot:loop a Tree collective: several per solver iteration
func (c *Comm) allReduceSumTree(v float64) float64 {
	p := c.t.size
	core := coreSize(p)
	rem := p - core
	rank := c.rank
	if rank >= core {
		// Fold in: hand the contribution to the core partner, wait for
		// the reduced result.
		c.send(rank-core, message{val: v}, 1)
		return c.recv(rank - core).val
	}
	if rank < rem {
		v += c.recv(rank + core).val
	}
	for mask := 1; mask < core; mask <<= 1 {
		partner := rank ^ mask
		c.send(partner, message{val: v}, 1)
		v += c.recv(partner).val
	}
	if rank < rem {
		c.send(rank+core, message{val: v}, 1)
	}
	return v
}

// AllReduceVec element-wise sums the ranks' src slices (all the same
// length) and stores the total into dst on every rank. dst and src may
// alias.
func (c *Comm) AllReduceVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("par: length mismatch in AllReduceVec")
	}
	c.stats.VecReductions++
	if c.t.size == 1 {
		copy(dst, src)
		return
	}
	if c.t.topo == Linear {
		c.allReduceVecLinear(dst, src)
		return
	}
	c.allReduceVecTree(dst, src)
}

func (c *Comm) allReduceVecLinear(dst, src []float64) {
	c.stats.MsgsSent++
	c.stats.WordsMoved += int64(len(src))
	c.arrive(
		func(t *team) {
			if t.cnt == 0 {
				if len(t.vecAcc) < len(src) {
					t.vecAcc = make([]float64, len(src))
				}
				t.vecAcc = t.vecAcc[:len(src)]
				for i := range t.vecAcc {
					t.vecAcc[i] = 0
				}
			}
			for i, x := range src {
				t.vecAcc[i] += x
			}
		},
		nil,
	)
	c.t.mu.Lock()
	copy(dst, c.t.vecAcc)
	c.t.mu.Unlock()
	// Second rendezvous so no rank can start the next vector reduction
	// while others are still copying the result out.
	c.barrier()
}

// allReduceVecTree is allReduceSumTree element by element. A peer adds a
// sent partial sum in while this rank is already a round further on, so each
// round's sum is written to a slice of its own.
//
//hot:loop a Tree collective
func (c *Comm) allReduceVecTree(dst, src []float64) {
	p, n := c.t.size, len(src)
	core := coreSize(p)
	rem := p - core
	rank := c.rank
	if rank >= core {
		acc, _ := c.payload(n)
		copy(acc, src)
		c.send(rank-core, message{data: acc}, n)
		copy(dst, c.recv(rank-core).data)
		return
	}
	// One slice for the fold-in's sum and one per round; the last round's is
	// dst itself unless a folded-in rank waits for it to be echoed.
	sums := bits.Len(uint(core))
	if rank >= rem {
		sums--
	}
	buf, _ := c.payload(n * sums)
	acc := buf[:n]
	copy(acc, src)
	if rank < rem {
		vec.Add(acc, acc, c.recv(rank+core).data)
	}
	for mask, k := 1, 1; mask < core; mask, k = mask<<1, k+1 {
		partner := rank ^ mask
		c.send(partner, message{data: acc}, n)
		in := c.recv(partner).data
		if k == sums {
			vec.Add(dst, acc, in)
			return
		}
		next := buf[k*n : (k+1)*n]
		vec.Add(next, acc, in)
		acc = next
	}
	c.send(rank+core, message{data: acc}, n) // rank < rem: the echo
	copy(dst, acc)
}

// AllGather concatenates each rank's local block into the global vector on
// every rank: global[offset(r):offset(r)+len(local_r)] = local_r. The
// caller supplies the rank's offset; the global buffer must be the same
// length on every rank. This is the halo exchange of the distributed MVM
// (each rank needs the full input vector for its row block).
func (c *Comm) AllGather(global []float64, local []float64, offset int) {
	//hot:cold a caller's out-of-range block aborts the program
	if offset < 0 || offset+len(local) > len(global) {
		panic(fmt.Sprintf("par: AllGather block [%d,%d) outside global %d", offset, offset+len(local), len(global)))
	}
	c.stats.Gathers++
	if c.t.size == 1 {
		copy(global[offset:offset+len(local)], local)
		return
	}
	if c.t.topo == Linear {
		c.allGatherLinear(global, local, offset)
		return
	}
	c.allGatherTree(global, local, offset)
}

//hot:cold the O(P) comparison baseline: its rendezvous closures allocate
func (c *Comm) allGatherLinear(global, local []float64, offset int) {
	c.stats.MsgsSent++
	c.stats.WordsMoved += int64(len(local))
	c.arrive(
		func(t *team) {
			if t.cnt == 0 {
				if len(t.gather) < len(global) {
					t.gather = make([]float64, len(global))
				}
			}
			copy(t.gather[offset:offset+len(local)], local)
		},
		nil,
	)
	c.t.mu.Lock()
	copy(global, c.t.gather[:len(global)])
	c.t.mu.Unlock()
	c.barrier()
}

// allGatherTree is the recursive-doubling all-gather: each round doubles
// the set of blocks a rank holds; segments ride with their global offsets
// so the partition may be arbitrary (nnz-balanced blocks included). The
// caller may overwrite local as soon as the call returns, while slower peers
// are still placing it, so what travels is a copy.
//
//hot:loop a Tree collective: the halo exchange of every distributed MVM
func (c *Comm) allGatherTree(global, local []float64, offset int) {
	p := c.t.size
	core := coreSize(p)
	rem := p - core
	rank := c.rank
	blk, par := c.payload(len(local))
	copy(blk, local)
	segs := c.segBuf[par][:0]
	segs = append(segs, segment{off: offset, data: blk})
	if rank >= core {
		// Fold in: the block joins the core partner's set before the
		// doubling rounds, so the echoed result includes it.
		c.send(rank-core, message{segs: segs}, len(local))
		segs = c.recv(rank - core).segs
	} else {
		if rank < rem {
			segs = append(segs, c.recv(rank+core).segs...)
		}
		for mask := 1; mask < core; mask <<= 1 {
			partner := rank ^ mask
			c.send(partner, message{segs: segs}, segWords(segs))
			segs = append(segs, c.recv(partner).segs...)
		}
		if rank < rem {
			c.send(rank+core, message{segs: segs}, segWords(segs))
		}
	}
	for _, s := range segs {
		copy(global[s.off:s.off+len(s.data)], s.data)
	}
}

// segWords returns the payload words of a segment list.
func segWords(segs []segment) (words int) {
	for _, s := range segs {
		words += len(s.data)
	}
	return words
}

// Bcast distributes root's value to every rank.
func (c *Comm) Bcast(v float64, root int) float64 {
	if root < 0 || root >= c.t.size {
		panic(fmt.Sprintf("par: Bcast root %d outside team of %d", root, c.t.size))
	}
	c.stats.Broadcasts++
	if c.t.size == 1 {
		return v
	}
	if c.t.topo == Linear {
		return c.bcastLinear(v, root)
	}
	return c.bcastTree(v, root)
}

func (c *Comm) bcastLinear(v float64, root int) float64 {
	if c.rank == root {
		c.stats.MsgsSent++
		c.stats.WordsMoved++
	}
	c.arrive(
		func(t *team) {
			if c.rank == root {
				t.result = v
			}
		},
		nil,
	)
	c.t.mu.Lock()
	r := c.t.result
	c.t.mu.Unlock()
	c.barrier()
	return r
}

// bcastTree is the binomial-tree broadcast rooted at root: a rank receives
// from the peer that clears its lowest set (root-relative) bit, then
// forwards down the remaining subtree — log2 P rounds, each rank sends at
// most log2 P messages.
//
//hot:loop a Tree collective
func (c *Comm) bcastTree(v float64, root int) float64 {
	p := c.t.size
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			v = c.recv((c.rank - mask + p) % p).val
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			c.send((c.rank+mask)%p, message{val: v}, 1)
		}
		mask >>= 1
	}
	return v
}

// BlockRange returns the contiguous row range [lo, hi) owned by rank r when
// n rows are block-partitioned evenly over size ranks, matching PETSc's
// default distribution. Ranks beyond n receive empty ranges.
func BlockRange(n, size, r int) (lo, hi int) {
	lo = r * n / size
	hi = (r + 1) * n / size
	return lo, hi
}
