// Package checkpoint provides the in-memory checkpoint/rollback store the
// online ABFT schemes use for outer-level recovery (§5.1): every cd
// iterations the minimum set of vectors, scalars and checksums needed to
// reconstruct solver state is captured; on error detection the solver
// rolls back to the latest snapshot.
//
// Following Tao et al. (arXiv:1804.11268), the store supports three
// snapshot codecs behind one API:
//
//   - Full: plain deep copies, bitwise-exact restore.
//   - Lossy: error-bounded quantization (per-block scale + fixed-width
//     packing). Restores are within max(AbsBound, RelBound·maxAbs) of the
//     saved values elementwise; callers must re-anchor checksums after a
//     lossy restore so online verification does not false-alarm on the
//     quantization error.
//   - Diff: bitwise-exact differential snapshots — only the XOR delta
//     against the previous checkpoint is stored, and restore reconstructs
//     the state from the reference plus the delta.
//
// Matching the paper's scalability note, snapshots live in local memory
// (per solver instance, and per rank in the parallel substrate) — there is
// no global or disk-based checkpoint.
//
// A store holds one snapshot. Restore and Strike read only the latest
// one, so a save overwrites it in place, reusing its maps, float slices and
// encode buffers whenever the saved shape (names and lengths) is unchanged:
// steady-state saves do not allocate, and a solve holds its checkpoint set
// once. (A spare kept for ping-ponging was never read; the Diff codec folds
// the latest delta into its reference before the overwrite, and Lossy
// encodes from the live vectors alone.)
package checkpoint

import (
	"errors"
	"fmt"
	"sort"

	"newsum/internal/vec"
)

// Codec selects how snapshots are encoded in memory.
type Codec int

const (
	// Full stores plain deep copies; restore is bitwise-identical.
	Full Codec = iota
	// Lossy stores quantized vectors under a user-set error bound.
	Lossy
	// Diff stores XOR deltas against the previous checkpoint; restore is
	// bitwise-identical.
	Diff
)

// String returns the flag spelling of the codec.
func (c Codec) String() string {
	switch c {
	case Full:
		return "full"
	case Lossy:
		return "lossy"
	case Diff:
		return "diff"
	}
	return fmt.Sprintf("codec(%d)", int(c))
}

// ParseCodec maps a flag value to a Codec. The empty string selects Full.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "full":
		return Full, nil
	case "lossy":
		return Lossy, nil
	case "diff", "differential", "incremental":
		return Diff, nil
	}
	return Full, fmt.Errorf("checkpoint: unknown codec %q (want full, lossy or diff)", s)
}

// DefaultRelBound is the relative error bound used by the Lossy codec when
// neither AbsBound nor RelBound is set.
const DefaultRelBound = 1e-6

var (
	errTruncated = errors.New("truncated snapshot encoding")
	errTrailing  = errors.New("trailing bytes in snapshot encoding")
)

// snapshot is one saved solver state. Vector payloads are either plain
// copies (Full) or codec-encoded bytes (Lossy/Diff); scalars and checksum
// slots are always held raw — checksum vectors are O(1)-sized and must
// survive bitwise for the full codec's golden traces.
type snapshot struct {
	iteration int
	// names lists the vector names in sorted order; Strike visits them in
	// this order so fault schedules stay deterministic.
	names     []string
	vectors   map[string][]float64 // Full codec payload
	encoded   map[string][]byte    // Lossy/Diff codec payload
	lens      map[string]int       // element counts for encoded payloads
	scalars   map[string]float64
	checksums map[string][]float64
}

// matches reports whether the snapshot's storage can be reused for a save
// of the given shape under the given codec.
func (sn *snapshot) matches(codec Codec, vectors map[string][]float64, scalars map[string]float64, checksums map[string][]float64) bool {
	if codec == Full {
		if sn.vectors == nil || len(sn.vectors) != len(vectors) {
			return false
		}
		for name, v := range vectors {
			have, ok := sn.vectors[name]
			if !ok || len(have) != len(v) {
				return false
			}
		}
	} else {
		if sn.encoded == nil || len(sn.lens) != len(vectors) {
			return false
		}
		for name, v := range vectors {
			n, ok := sn.lens[name]
			if !ok || n != len(v) {
				return false
			}
		}
	}
	if len(sn.scalars) != len(scalars) {
		return false
	}
	for name := range scalars {
		if _, ok := sn.scalars[name]; !ok {
			return false
		}
	}
	if len(sn.checksums) != len(checksums) {
		return false
	}
	for name, v := range checksums {
		have, ok := sn.checksums[name]
		if !ok || len(have) != len(v) {
			return false
		}
	}
	return true
}

// newSnapshot allocates storage shaped for the given state, its vector
// copies taken from vec's pool into taken.
func newSnapshot(codec Codec, vectors map[string][]float64, scalars map[string]float64, checksums map[string][]float64, taken *vec.Taken) *snapshot {
	sn := &snapshot{
		names:     make([]string, 0, len(vectors)),
		scalars:   make(map[string]float64, len(scalars)),
		checksums: make(map[string][]float64, len(checksums)),
	}
	for name := range vectors {
		sn.names = append(sn.names, name)
	}
	sort.Strings(sn.names)
	if codec == Full {
		sn.vectors = make(map[string][]float64, len(vectors))
		for name, v := range vectors {
			sn.vectors[name] = taken.Take(len(v))
		}
	} else {
		sn.encoded = make(map[string][]byte, len(vectors))
		sn.lens = make(map[string]int, len(vectors))
		for name, v := range vectors {
			sn.encoded[name] = nil
			sn.lens[name] = len(v)
		}
	}
	for name, v := range checksums {
		sn.checksums[name] = make([]float64, len(v))
	}
	return sn
}

// kind reports which payload family the snapshot was written with, so a
// mid-run codec change cannot misinterpret old storage.
func (sn *snapshot) kind(codec Codec) bool {
	if codec == Full {
		return sn.vectors != nil
	}
	return sn.encoded != nil
}

// Store holds the latest snapshot and usage statistics. The zero value is
// a ready-to-use store with the Full codec; set Codec (and, for Lossy, the
// error bounds) before the first Save and do not change them afterwards.
type Store struct {
	// Codec selects the snapshot encoding.
	Codec Codec
	// AbsBound and RelBound set the Lossy codec's elementwise error bound:
	// the restore error is at most max(AbsBound, RelBound·maxAbs) where
	// maxAbs is the largest magnitude in the surrounding 256-element
	// block. If both are zero, DefaultRelBound applies.
	AbsBound float64
	RelBound float64

	// Saves counts checkpoints taken.
	Saves int
	// Rollbacks counts restorations.
	Rollbacks int
	// BytesCopied accumulates the logical volume of state captured per
	// save — vector AND checksum-slot float64s — for §5.1 overhead
	// accounting, independent of how the codec encodes it.
	BytesCopied int64
	// BytesStored accumulates the bytes actually held per save after
	// encoding (encoded vector payloads plus raw checksum slots); for the
	// Full codec it equals BytesCopied.
	BytesStored int64

	latest *snapshot
	// ref holds the reference state the Diff codec encodes against: the
	// reconstructed state of the checkpoint before latest (all zeros
	// before the first save).
	ref map[string][]float64
	// scratch is the decode buffer Strike uses for encoded codecs.
	scratch []float64
	// qbuf is the Lossy quantization workspace.
	qbuf []int64
	// taken lists the n-length buffers — the Full copies, the Diff
	// reference, the scratch — taken from vec's pool, for Release.
	taken vec.Taken
}

// Lossy reports whether restored vectors may differ from the saved ones
// (within the configured error bound). Callers must re-anchor checksums
// from the restored data after rolling back from a lossy store.
func (s *Store) Lossy() bool { return s.Codec == Lossy }

// Save captures the given state as the new latest snapshot, overwriting
// the previous one. Any of the maps may be nil. The previous snapshot's
// storage is reused when the shape (names and lengths) is unchanged, so
// steady-state saves are allocation-free.
func (s *Store) Save(iter int, vectors map[string][]float64, scalars map[string]float64, checksums map[string][]float64) {
	if s.latest != nil && !s.latest.kind(s.Codec) {
		// Codec changed under a live store: drop stale storage.
		s.latest, s.ref = nil, nil
	}
	if s.Codec == Diff {
		s.foldRef() // consumes the latest delta before it is overwritten
	}
	snap := s.latest
	if snap == nil || !snap.matches(s.Codec, vectors, scalars, checksums) {
		snap = newSnapshot(s.Codec, vectors, scalars, checksums, &s.taken)
	}
	snap.iteration = iter
	switch s.Codec {
	case Lossy:
		for name, v := range vectors {
			enc := s.encodeLossy(snap.encoded[name][:0], v)
			snap.encoded[name] = enc
			s.BytesStored += int64(len(enc))
		}
	case Diff:
		if s.ref == nil {
			s.ref = make(map[string][]float64, len(vectors))
		}
		for name, v := range vectors {
			ref := s.ref[name]
			if len(ref) != len(v) {
				ref = s.taken.Take(len(v))
				s.ref[name] = ref
			}
			enc := encodeDiff(snap.encoded[name][:0], v, ref)
			snap.encoded[name] = enc
			s.BytesStored += int64(len(enc))
		}
	default:
		for name, v := range vectors {
			copy(snap.vectors[name], v)
			s.BytesStored += int64(8 * len(v))
		}
	}
	for _, v := range vectors {
		s.BytesCopied += int64(8 * len(v))
	}
	for name, v := range scalars {
		snap.scalars[name] = v
	}
	for name, v := range checksums {
		copy(snap.checksums[name], v)
		s.BytesCopied += int64(8 * len(v))
		s.BytesStored += int64(8 * len(v))
	}
	s.latest = snap
	s.Saves++
}

// foldRef advances the Diff reference state to the latest snapshot's state
// (ref ⊕= latest delta) so the next save can encode against it.
func (s *Store) foldRef() {
	sn := s.latest
	if sn == nil || sn.encoded == nil {
		return
	}
	for name, enc := range sn.encoded {
		ref := s.ref[name]
		if len(ref) != sn.lens[name] {
			continue // shape changed; ref is rebuilt by the caller
		}
		if err := decodeDiff(ref, ref, enc); err != nil {
			continue // unreachable for store-produced encodings
		}
	}
}

// Release empties the store and puts its n-length buffers back in vec's
// pool for the next solve's store. Nothing may read the store's state
// after it; a later Save starts from an empty store.
func (s *Store) Release() {
	s.taken.PutAll()
	s.latest, s.ref, s.scratch = nil, nil, nil
}

// HasSnapshot reports whether a snapshot is available to roll back to.
func (s *Store) HasSnapshot() bool { return s.latest != nil }

// LatestIteration returns the iteration the latest snapshot was taken at,
// without counting a rollback; ok is false when no snapshot exists.
func (s *Store) LatestIteration() (iter int, ok bool) {
	if s.latest == nil {
		return 0, false
	}
	return s.latest.iteration, true
}

// Strike applies fn to every stored vector in sorted-name order, exposing
// the snapshot payload to fault injection: mutations made by fn land in
// the checkpointed state and stay dormant until rollback. For the Full
// codec fn receives the stored slice itself; for encoded codecs the vector
// is decoded, struck and re-encoded (which may add one extra quantization
// step under Lossy, and does not adjust the Bytes counters).
func (s *Store) Strike(fn func(name string, data []float64)) {
	sn := s.latest
	if sn == nil {
		return
	}
	for _, name := range sn.names {
		if sn.vectors != nil {
			fn(name, sn.vectors[name])
			continue
		}
		n := sn.lens[name]
		if cap(s.scratch) < n {
			s.scratch = s.taken.Take(n)
		}
		buf := s.scratch[:n]
		var err error
		if s.Codec == Diff {
			err = decodeDiff(buf, s.ref[name], sn.encoded[name])
		} else {
			err = decodeLossy(buf, sn.encoded[name])
		}
		if err != nil {
			continue // unreachable for store-produced encodings
		}
		fn(name, buf)
		if s.Codec == Diff {
			sn.encoded[name] = encodeDiff(sn.encoded[name][:0], buf, s.ref[name])
		} else {
			sn.encoded[name] = s.encodeLossy(sn.encoded[name][:0], buf)
		}
	}
}

// Restore copies the latest snapshot's state back into the caller's
// buffers. Destination vectors must exist in the snapshot and have matching
// lengths; scalars and checksums are returned through the maps provided (a
// nil map skips that class of state). It returns the snapshot's iteration.
// Under the Lossy codec the restored vectors carry quantization error (see
// Lossy); Full and Diff restores are bitwise-identical to the saved state.
func (s *Store) Restore(vectors map[string][]float64, scalars map[string]float64, checksums map[string][]float64) (int, error) {
	if s.latest == nil {
		return 0, fmt.Errorf("checkpoint: no snapshot to restore")
	}
	sn := s.latest
	for name, dst := range vectors {
		if sn.vectors != nil {
			src, ok := sn.vectors[name]
			if !ok {
				return 0, fmt.Errorf("checkpoint: vector %q not in snapshot", name)
			}
			if len(src) != len(dst) {
				return 0, fmt.Errorf("checkpoint: vector %q length %d, want %d", name, len(src), len(dst))
			}
			copy(dst, src)
			continue
		}
		n, ok := sn.lens[name]
		if !ok {
			return 0, fmt.Errorf("checkpoint: vector %q not in snapshot", name)
		}
		if n != len(dst) {
			return 0, fmt.Errorf("checkpoint: vector %q length %d, want %d", name, n, len(dst))
		}
		var err error
		if s.Codec == Diff {
			err = decodeDiff(dst, s.ref[name], sn.encoded[name])
		} else {
			err = decodeLossy(dst, sn.encoded[name])
		}
		if err != nil {
			return 0, fmt.Errorf("checkpoint: vector %q: %w", name, err)
		}
	}
	if scalars != nil {
		for name, v := range sn.scalars {
			scalars[name] = v
		}
	}
	for name, dst := range checksums {
		src, ok := sn.checksums[name]
		if !ok {
			return 0, fmt.Errorf("checkpoint: checksums %q not in snapshot", name)
		}
		if len(src) != len(dst) {
			return 0, fmt.Errorf("checkpoint: checksums %q length %d, want %d", name, len(src), len(dst))
		}
		copy(dst, src)
	}
	s.Rollbacks++
	return sn.iteration, nil
}
