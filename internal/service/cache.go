package service

import (
	"container/list"
	"fmt"

	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// encCache is the service's LRU cache of built operators and their
// checksum encodings, keyed by the MatrixSpec fingerprint. A hit skips
// both the O(nnz) matrix construction and the O(nnz·w) offline encoding
// derivation — the dominant setup cost the paper amortizes over a solve
// and the service amortizes over many.
//
// Admission is guarded the ABFT way: the encoding is derived twice,
// independently, and admitted only if the two agree bit for bit
// (checksum.Encoding.Rederives). The second derivation is compared in
// place, in scratch from vec's pool, and nothing of it is kept: the cache
// holds one Encoding per operator. A soft error striking the offline
// precompute would otherwise poison every solve served from the cache —
// the one corruption the online scheme cannot see, because a consistently
// wrong encoding verifies consistently. On disagreement the entry is not
// cached and the (known-costlier) per-solve derivation path is used. An
// entry's ILU(0) factor, which its ilu0 jobs share, is admitted by
// checksum.Held's rule instead (Service.ilu0): no job factors twice.
type encCache struct {
	cap     int
	order   *list.List               // front = most recently used
	entries map[uint64]*list.Element // fingerprint -> element holding *encEntry
}

type encEntry struct {
	key  uint64
	spec MatrixSpec
	a    *sparse.CSR
	enc  *checksum.Encoding
	// ilu0 is a's ILU(0) factor under checksum.Held's rule (Service.ilu0),
	// guarded by Service.cacheMu.
	ilu0 *checksum.Held[precond.Preconditioner]
}

func newEncCache(capacity int) *encCache {
	return &encCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[uint64]*list.Element, capacity),
	}
}

// get returns the cached operator and encoding for the spec, if present.
// A fingerprint collision (same hash, different spec) is treated as a miss
// and reported so the stats layer can count it.
func (c *encCache) get(key uint64, spec *MatrixSpec) (*encEntry, bool, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false, false
	}
	e := el.Value.(*encEntry)
	if !equalSpec(&e.spec, spec) {
		return nil, false, true
	}
	c.order.MoveToFront(el)
	return e, true, false
}

// put stores and returns an admitted matrix + encoding, evicting the LRU
// entry at capacity. The caller performs the double-derivation admission
// check (deriveChecked) outside the cache lock; put only installs the
// result.
func (c *encCache) put(key uint64, spec *MatrixSpec, a *sparse.CSR, enc *checksum.Encoding) *encEntry {
	e := &encEntry{key: key, spec: *spec, a: a, enc: enc}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return e
	}
	for c.order.Len() >= c.cap {
		lru := c.order.Back()
		if lru == nil {
			break
		}
		c.order.Remove(lru)
		delete(c.entries, lru.Value.(*encEntry).key)
	}
	c.entries[key] = c.order.PushFront(e)
	return e
}

// newEncoding is the derivation deriveChecked admits; a test strikes it
// with a soft error.
var newEncoding = checksum.NewEncoding

// deriveChecked derives the checksum encoding of a and returns it only if
// a second, independent derivation agrees with it bit for bit — the
// admission integrity check described on encCache. The error carries the
// fingerprint for the stats layer; the caller falls back to per-solve
// derivation.
func deriveChecked(key uint64, a *sparse.CSR) (*checksum.Encoding, error) {
	enc := newEncoding(a, 0)
	if !enc.Rederives(a) {
		return nil, fmt.Errorf("service: encoding admission check failed for fingerprint %016x: independent derivations disagree", key)
	}
	return enc, nil
}

// len reports the number of cached entries.
func (c *encCache) len() int { return c.order.Len() }
