// Package router is the sharded front tier over N supervised newsum-serve
// backends: it consistent-hashes each job's operator spec
// (service.MatrixSpec.Fingerprint) onto a backend so that every operator's
// double-derivation-verified checksum encoding is cached hot on its primary
// (and, when jobs collide there, on its secondary: at most two processes),
// health-checks the backends over their HTTP API, restarts dead ones, and
// re-dispatches in-flight jobs with a bounded retry budget.
//
// The tier extends the repo's ABFT story one level up, in the spirit of
// Bosilca et al.: inside a backend, a struck vector element is detected by
// checksum and rolled back; at the router, a dead backend process is just
// a coarser detected fault, recovered by restart and re-dispatch. Both
// recoveries are invisible to the client beyond latency — a solve is
// deterministic, so a re-dispatched job converges to the same answer.
package router

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over backend slots: each slot projects
// vnodes points onto the uint64 circle, and a fingerprint's preference
// order is the distinct-slot sequence met walking clockwise from it.
// Virtual nodes smooth the per-slot load; consistent hashing keeps almost
// every fingerprint's primary slot stable when a slot set changes — which
// is what keeps encoding caches hot and their copies few.
type ring struct {
	slots  int
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	slot int
}

func hashPoint(slot, replica int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(slot))
	binary.LittleEndian.PutUint64(buf[8:], uint64(replica))
	_, _ = h.Write(buf[:]) //lint:ignore errdrop hash.Hash.Write never fails
	return h.Sum64()
}

func newRing(slots, vnodes int) *ring {
	r := &ring{slots: slots, points: make([]ringPoint, 0, slots*vnodes)}
	for s := 0; s < slots; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(s, v), slot: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break so the order never depends on sort
		// internals (ties are astronomically rare but must be stable).
		return r.points[i].slot < r.points[j].slot
	})
	return r
}

// order returns the preference order of distinct slots for a fingerprint:
// the primary first, then the fail-over sequence. The result is a pure
// function of (fingerprint, slot count, vnodes) — every router instance
// over the same backend set routes identically.
func (r *ring) order(fp uint64) []int {
	out := make([]int, 0, r.slots)
	if len(r.points) == 0 {
		return out
	}
	seen := make([]bool, r.slots)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= fp })
	for i := 0; len(out) < r.slots && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.slot] {
			seen[p.slot] = true
			out = append(out, p.slot)
		}
	}
	return out
}
