package checkpoint

import (
	"math"
	"testing"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	var s Store
	if s.HasSnapshot() {
		t.Fatalf("empty store claims a snapshot")
	}
	p := []float64{1, 2, 3}
	x := []float64{4, 5, 6}
	cs := []float64{6}
	s.Save(7,
		map[string][]float64{"p": p, "x": x},
		map[string]float64{"rho": 2.5},
		map[string][]float64{"p": cs})

	// Mutate the live state; the snapshot must be unaffected (deep copy).
	p[0] = 99
	x[2] = -1
	cs[0] = 0

	pr := make([]float64, 3)
	xr := make([]float64, 3)
	csr := make([]float64, 1)
	scal := map[string]float64{}
	iter, err := s.Restore(
		map[string][]float64{"p": pr, "x": xr},
		scal,
		map[string][]float64{"p": csr})
	if err != nil {
		t.Fatal(err)
	}
	if iter != 7 {
		t.Fatalf("iteration: %d", iter)
	}
	if pr[0] != 1 || xr[2] != 6 || csr[0] != 6 {
		t.Fatalf("restore returned mutated data: %v %v %v", pr, xr, csr)
	}
	if scal["rho"] != 2.5 {
		t.Fatalf("scalar lost: %v", scal)
	}
	if s.Saves != 1 || s.Rollbacks != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// Regression (ISSUE 10): BytesCopied must count the checksum slots too,
	// not just the vectors — 6 vector elements plus 1 checksum element.
	if s.BytesCopied != 56 {
		t.Fatalf("bytes copied: %d, want 56 (48 vector + 8 checksum)", s.BytesCopied)
	}
	if s.BytesStored != s.BytesCopied {
		t.Fatalf("full codec stored %d bytes, want BytesCopied %d", s.BytesStored, s.BytesCopied)
	}
}

func TestBytesCopiedCountsVectorsAndChecksums(t *testing.T) {
	for _, codec := range []Codec{Full, Lossy, Diff} {
		s := Store{Codec: codec}
		s.Save(0,
			map[string][]float64{"x": make([]float64, 10)},
			nil,
			map[string][]float64{"x": make([]float64, 3), "x.eta": make([]float64, 2)})
		want := int64(8 * (10 + 3 + 2))
		if s.BytesCopied != want {
			t.Errorf("%v: BytesCopied %d, want %d (vectors + checksums)", codec, s.BytesCopied, want)
		}
	}
}

func TestRestoreWithoutSnapshot(t *testing.T) {
	var s Store
	if _, err := s.Restore(nil, nil, nil); err == nil {
		t.Fatalf("expected error")
	}
}

func TestRestoreUnknownVector(t *testing.T) {
	for _, codec := range []Codec{Full, Lossy, Diff} {
		s := Store{Codec: codec}
		s.Save(0, map[string][]float64{"x": {1}}, nil, nil)
		if _, err := s.Restore(map[string][]float64{"y": make([]float64, 1)}, nil, nil); err == nil {
			t.Fatalf("%v: expected unknown-vector error", codec)
		}
		if _, err := s.Restore(map[string][]float64{"x": make([]float64, 2)}, nil, nil); err == nil {
			t.Fatalf("%v: expected length-mismatch error", codec)
		}
		if _, err := s.Restore(nil, nil, map[string][]float64{"x": make([]float64, 1)}); err == nil {
			t.Fatalf("%v: expected unknown-checksums error", codec)
		}
		s.Save(0, map[string][]float64{"x": {1}}, nil, map[string][]float64{"x": {2}})
		if _, err := s.Restore(nil, nil, map[string][]float64{"x": make([]float64, 9)}); err == nil {
			t.Fatalf("%v: expected checksum length-mismatch error", codec)
		}
	}
}

func TestLatestSnapshotReplaced(t *testing.T) {
	var s Store
	s.Save(1, map[string][]float64{"x": {1}}, nil, nil)
	s.Save(5, map[string][]float64{"x": {2}}, nil, nil)
	if iter, ok := s.LatestIteration(); !ok || iter != 5 {
		t.Fatalf("latest: %d %v", iter, ok)
	}
	x := make([]float64, 1)
	iter, err := s.Restore(map[string][]float64{"x": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 5 || x[0] != 2 {
		t.Fatalf("rollback target wrong: iter %d x %v", iter, x)
	}
}

func TestLatestIterationEmpty(t *testing.T) {
	var s Store
	if _, ok := s.LatestIteration(); ok {
		t.Fatalf("empty store reports an iteration")
	}
}

func TestNilMaps(t *testing.T) {
	for _, codec := range []Codec{Full, Lossy, Diff} {
		s := Store{Codec: codec}
		s.Save(0, nil, nil, nil)
		if _, err := s.Restore(nil, nil, nil); err != nil {
			t.Fatalf("%v: nil-map restore should be a no-op success: %v", codec, err)
		}
	}
}

func TestParseCodec(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
	}{
		{"", Full}, {"full", Full}, {"lossy", Lossy},
		{"diff", Diff}, {"differential", Diff}, {"incremental", Diff},
	}
	for _, c := range cases {
		got, err := ParseCodec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Errorf("ParseCodec accepted an unknown codec")
	}
	for _, c := range []Codec{Full, Lossy, Diff} {
		rt, err := ParseCodec(c.String())
		if err != nil || rt != c {
			t.Errorf("String/Parse round trip failed for %v", c)
		}
	}
	if Codec(42).String() == "" {
		t.Errorf("out-of-range codec should still print")
	}
}

func TestLossyFlag(t *testing.T) {
	lossy := Store{Codec: Lossy}
	if !lossy.Lossy() {
		t.Fatalf("lossy store does not report Lossy")
	}
	full, diff := Store{Codec: Full}, Store{Codec: Diff}
	if full.Lossy() || diff.Lossy() {
		t.Fatalf("exact codecs report Lossy")
	}
}

// waveState builds a deterministic smooth state resembling a solver
// iterate: n elements of mixed magnitude, phase-shifted by step.
func waveState(n, stepIdx int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 10*math.Sin(0.1*float64(i)+0.01*float64(stepIdx)) + 1e-4*float64(i%7)
	}
	return v
}

func TestLossyRoundTripWithinAbsBound(t *testing.T) {
	const bound = 1e-5
	s := Store{Codec: Lossy, AbsBound: bound}
	v := waveState(1000, 0)
	s.Save(3, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, len(v))
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if d := math.Abs(got[i] - v[i]); d > bound*(1+1e-9) {
			t.Fatalf("element %d: error %g exceeds abs bound %g", i, d, bound)
		}
	}
}

func TestLossyRoundTripWithinRelBound(t *testing.T) {
	const rel = 1e-7
	s := Store{Codec: Lossy, RelBound: rel}
	// Three regimes in separate blocks: tiny, moderate, huge magnitudes.
	v := make([]float64, 3*lossyBlock)
	for i := 0; i < lossyBlock; i++ {
		v[i] = 1e-12 * float64(i+1)
		v[lossyBlock+i] = math.Cos(float64(i))
		v[2*lossyBlock+i] = 1e9 * math.Sin(float64(i))
	}
	s.Save(0, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, len(v))
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		maxAbs := 0.0
		for i := b * lossyBlock; i < (b+1)*lossyBlock; i++ {
			if a := math.Abs(v[i]); a > maxAbs {
				maxAbs = a
			}
		}
		bound := rel * maxAbs * (1 + 1e-9)
		for i := b * lossyBlock; i < (b+1)*lossyBlock; i++ {
			if d := math.Abs(got[i] - v[i]); d > bound {
				t.Fatalf("block %d element %d: error %g exceeds rel bound %g", b, i, d, bound)
			}
		}
	}
}

func TestLossyDefaultBoundApplies(t *testing.T) {
	s := Store{Codec: Lossy} // neither bound set → DefaultRelBound
	v := waveState(300, 1)
	s.Save(0, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, len(v))
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if d := math.Abs(got[i] - v[i]); d > DefaultRelBound*11 {
			t.Fatalf("element %d: error %g exceeds default bound", i, d)
		}
	}
}

func TestLossyAdversarialBlocks(t *testing.T) {
	s := Store{Codec: Lossy, AbsBound: 1e-6}
	v := make([]float64, 4*lossyBlock)
	// Block 0: all zeros. Block 1: NaN/Inf → raw fallback, bitwise.
	v[lossyBlock] = math.NaN()
	v[lossyBlock+1] = math.Inf(1)
	v[lossyBlock+2] = math.Inf(-1)
	v[lossyBlock+3] = 42.5
	// Block 2: magnitudes too wide for 52-bit indices at this bound → raw.
	for i := 0; i < lossyBlock; i++ {
		v[2*lossyBlock+i] = 1e40 * float64(i+1)
	}
	// Block 3: denormals.
	for i := 0; i < lossyBlock; i++ {
		v[3*lossyBlock+i] = math.SmallestNonzeroFloat64 * float64(i)
	}
	s.Save(0, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, len(v))
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lossyBlock; i++ {
		if got[i] != 0 {
			t.Fatalf("zero block element %d restored as %g", i, got[i])
		}
	}
	if !math.IsNaN(got[lossyBlock]) || !math.IsInf(got[lossyBlock+1], 1) || !math.IsInf(got[lossyBlock+2], -1) {
		t.Fatalf("non-finite block not restored raw: %v", got[lossyBlock:lossyBlock+4])
	}
	if got[lossyBlock+3] != 42.5 {
		t.Fatalf("finite value in raw block not bitwise: %g", got[lossyBlock+3])
	}
	for i := 0; i < lossyBlock; i++ {
		if got[2*lossyBlock+i] != v[2*lossyBlock+i] {
			t.Fatalf("wide block element %d not raw-restored", i)
		}
		if d := math.Abs(got[3*lossyBlock+i] - v[3*lossyBlock+i]); d > 1e-6 {
			t.Fatalf("denormal block element %d error %g", i, d)
		}
	}
}

func TestLossyStoresFewerBytesThanFull(t *testing.T) {
	v := waveState(4096, 0)
	full := Store{Codec: Full}
	lossy := Store{Codec: Lossy, RelBound: 1e-6}
	state := map[string][]float64{"x": v}
	full.Save(0, state, nil, nil)
	lossy.Save(0, state, nil, nil)
	if lossy.BytesStored >= full.BytesStored/2 {
		t.Fatalf("lossy stored %d bytes, full %d — expected <half", lossy.BytesStored, full.BytesStored)
	}
	if lossy.BytesCopied != full.BytesCopied {
		t.Fatalf("logical copy accounting should not depend on codec: %d vs %d", lossy.BytesCopied, full.BytesCopied)
	}
}

func TestDiffBitwiseReconstructAcrossSaves(t *testing.T) {
	s := Store{Codec: Diff}
	var states [][]float64
	for k := 0; k < 5; k++ {
		states = append(states, waveState(700, k))
	}
	for k, st := range states {
		s.Save(k, map[string][]float64{"x": st}, nil, nil)
		got := make([]float64, len(st))
		iter, err := s.Restore(map[string][]float64{"x": got}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if iter != k {
			t.Fatalf("iteration %d, want %d", iter, k)
		}
		for i := range st {
			if math.Float64bits(got[i]) != math.Float64bits(st[i]) {
				t.Fatalf("save %d element %d not bitwise: %g vs %g", k, i, got[i], st[i])
			}
		}
	}
}

func TestDiffStoresFewerBytesThanFull(t *testing.T) {
	s := Store{Codec: Diff}
	full := Store{Codec: Full}
	base := waveState(4096, 0)
	s.Save(0, map[string][]float64{"x": base}, nil, nil)
	full.Save(0, map[string][]float64{"x": base}, nil, nil)
	firstStored := s.BytesStored
	// A nearby iterate: small absolute drift leaves high mantissa bytes
	// shared, so the second delta must be much smaller than the first.
	next := make([]float64, len(base))
	copy(next, base)
	for i := range next {
		next[i] += 1e-13 * float64(i%5)
	}
	s.Save(1, map[string][]float64{"x": next}, nil, nil)
	full.Save(1, map[string][]float64{"x": next}, nil, nil)
	secondStored := s.BytesStored - firstStored
	fullPerSave := full.BytesStored / 2
	if secondStored >= fullPerSave/2 {
		t.Fatalf("incremental delta stored %d bytes vs %d full — expected <half", secondStored, fullPerSave)
	}
	got := make([]float64, len(next))
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range next {
		if math.Float64bits(got[i]) != math.Float64bits(next[i]) {
			t.Fatalf("delta restore not bitwise at %d", i)
		}
	}
}

func TestDiffShapeChangeResetsReference(t *testing.T) {
	s := Store{Codec: Diff}
	s.Save(0, map[string][]float64{"x": waveState(64, 0)}, nil, nil)
	v := waveState(96, 1)
	s.Save(1, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, 96)
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("post-resize restore not bitwise at %d", i)
		}
	}
}

func TestCodecChangeMidRunResets(t *testing.T) {
	s := Store{Codec: Full}
	s.Save(0, map[string][]float64{"x": {1, 2}}, nil, nil)
	s.Codec = Diff
	v := []float64{3, 4}
	s.Save(1, map[string][]float64{"x": v}, nil, nil)
	got := make([]float64, 2)
	if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("post-switch restore wrong: %v", got)
	}
}

func TestStrikeFullMutatesStoredState(t *testing.T) {
	var s Store
	s.Save(2, map[string][]float64{"a": {1, 2}, "b": {3}}, nil, nil)
	var order []string
	s.Strike(func(name string, data []float64) {
		order = append(order, name)
		data[0] = -7
	})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("strike order: %v", order)
	}
	a, b := make([]float64, 2), make([]float64, 1)
	if _, err := s.Restore(map[string][]float64{"a": a, "b": b}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a[0] != -7 || b[0] != -7 || a[1] != 2 {
		t.Fatalf("strike did not land in snapshot: %v %v", a, b)
	}
}

func TestStrikeEncodedCodecs(t *testing.T) {
	for _, codec := range []Codec{Lossy, Diff} {
		s := Store{Codec: codec, AbsBound: 1e-8}
		v := waveState(300, 0)
		s.Save(0, map[string][]float64{"x": v}, nil, nil)
		s.Strike(func(name string, data []float64) {
			data[17] = 1e6
		})
		got := make([]float64, len(v))
		if _, err := s.Restore(map[string][]float64{"x": got}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[17]-1e6) > 1 {
			t.Fatalf("%v: struck value lost: %g", codec, got[17])
		}
		for i := range v {
			if i == 17 {
				continue
			}
			// Strike re-encodes, so allow two quantization steps for the
			// lossy codec; diff stays bitwise.
			if d := math.Abs(got[i] - v[i]); d > 3e-8 {
				t.Fatalf("%v: unstruck element %d drifted by %g", codec, i, d)
			}
		}
	}
}

func TestStrikeEmptyStore(t *testing.T) {
	var s Store
	s.Strike(func(string, []float64) { t.Fatal("strike on empty store") })
}

func TestDecodeErrorPaths(t *testing.T) {
	dst := make([]float64, 4)
	if err := decodeLossy(dst, nil); err == nil {
		t.Errorf("lossy: empty encoding for nonempty vector must error")
	}
	if err := decodeLossy(dst, []byte{7, 0, 0}); err == nil {
		t.Errorf("lossy: truncated packed block must error")
	}
	if err := decodeLossy(dst, []byte{200}); err == nil {
		t.Errorf("lossy: bad header must error")
	}
	if err := decodeLossy(dst, []byte{blockRaw, 1, 2}); err == nil {
		t.Errorf("lossy: truncated raw block must error")
	}
	if err := decodeLossy(make([]float64, 1), []byte{blockZero, 9}); err == nil {
		t.Errorf("lossy: trailing bytes must error")
	}
	ref := make([]float64, 4)
	if err := decodeDiff(dst, ref[:2], nil); err == nil {
		t.Errorf("diff: reference length mismatch must error")
	}
	if err := decodeDiff(dst, ref, nil); err == nil {
		t.Errorf("diff: empty encoding must error")
	}
	if err := decodeDiff(dst, ref, []byte{0x99}); err == nil {
		t.Errorf("diff: control byte past 8 must error")
	}
	if err := decodeDiff(dst, ref, []byte{0x22, 1}); err == nil {
		t.Errorf("diff: truncated payload must error")
	}
	if err := decodeDiff(dst[:1], ref[:1], []byte{0x10, 1}); err == nil {
		t.Errorf("diff: tail nibble on odd length must error")
	}
	if err := decodeDiff(dst[:2], ref[:2], []byte{0, 0xFF}); err == nil {
		t.Errorf("diff: trailing bytes must error")
	}
}

// TestSaveSteadyStateZeroAllocs is the regression for ISSUE 10's
// allocation-churn bugfix: once shapes stabilize, Save must not allocate
// for any codec.
func TestSaveSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, codec := range []Codec{Full, Lossy, Diff} {
		s := Store{Codec: codec, RelBound: 1e-6}
		x := waveState(2048, 0)
		p := waveState(2048, 1)
		cs := []float64{1, 2}
		vectors := map[string][]float64{"x": x, "p": p}
		scalars := map[string]float64{"rho": 1.5}
		checksums := map[string][]float64{"x": cs}
		iter := 0
		save := func() {
			iter++
			// Drift the state so diff deltas stay non-trivial.
			x[iter%len(x)] += 1e-9
			s.Save(iter, vectors, scalars, checksums)
		}
		for i := 0; i < 4; i++ {
			save() // warm the snapshot and the encode capacity
		}
		if allocs := testing.AllocsPerRun(10, save); allocs != 0 {
			t.Errorf("%v: steady-state Save allocates %v allocs/op, want 0", codec, allocs)
		}
	}
}

func TestSnapshotStorageReusedAcrossSaves(t *testing.T) {
	var s Store
	v := []float64{1, 2, 3}
	s.Save(0, map[string][]float64{"x": v}, nil, nil)
	s.Save(1, map[string][]float64{"x": v}, nil, nil)
	first := s.latest
	s.Save(2, map[string][]float64{"x": v}, nil, nil)
	s.Save(3, map[string][]float64{"x": v}, nil, nil)
	// The one snapshot is overwritten in place, not reallocated.
	if s.latest != first {
		t.Fatalf("snapshot not recycled")
	}
}

// TestSavesOfOneShapeAllocateOneSnapshot pins that a store holds its
// checkpoint set once: three saves of one shape into a fresh store allocate
// what the first save alone does, for every codec. A store that kept a
// spare snapshot allocated a second one at its second save.
func TestSavesOfOneShapeAllocateOneSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	vectors := map[string][]float64{"x": waveState(2048, 0), "p": waveState(2048, 1)}
	scalars := map[string]float64{"rho": 1.5}
	checksums := map[string][]float64{"x": {1, 2}}
	for _, codec := range []Codec{Full, Lossy, Diff} {
		saves := func(k int) func() {
			return func() {
				s := Store{Codec: codec}
				for i := 0; i < k; i++ {
					s.Save(i, vectors, scalars, checksums)
				}
			}
		}
		one, three := testing.AllocsPerRun(10, saves(1)), testing.AllocsPerRun(10, saves(3))
		if three != one {
			t.Errorf("%v: three saves allocate %v, one save %v; want equal", codec, three, one)
		}
	}
}
