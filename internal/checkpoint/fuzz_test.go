package checkpoint

import (
	"encoding/binary"
	"math"
	"testing"
)

// The snapshot decoders read bytes a rollback trusts: a corrupt or hostile
// encoding must come back as an error, never a panic, a partial write or a
// write outside dst. Both targets take arbitrary payload bytes with a
// target length up to maxFuzzLen, then feed the same bytes, read as
// float64s, through the encoder and require the round trip: within the
// block bound for Lossy, bit for bit for Diff.

const maxFuzzLen = 4096

// guard is the bit pattern of the cells on either side of a decoder's dst.
const guard = 0x7ff4dead_beef0001

// guarded returns dst of length n inside a buffer with one guard cell on
// each side, every dst cell set to fill.
func guarded(n int, fill uint64) (buf, dst []float64) {
	buf = make([]float64, n+2)
	for i := range buf {
		buf[i] = math.Float64frombits(fill)
	}
	buf[0] = math.Float64frombits(guard)
	buf[n+1] = math.Float64frombits(guard)
	return buf, buf[1 : n+1 : n+1]
}

func checkGuards(t *testing.T, buf []float64) {
	t.Helper()
	if math.Float64bits(buf[0]) != guard || math.Float64bits(buf[len(buf)-1]) != guard {
		t.Fatalf("decoder wrote outside dst")
	}
}

// floatsOf reads data as little-endian float64s, eight bytes each.
func floatsOf(data []byte) []float64 {
	v := make([]float64, len(data)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeTwice decodes payload into two guarded buffers filled differently
// beforehand: a full decode writes every element, so on success the two
// agree bit for bit.
func decodeTwice(t *testing.T, n int, decode func(dst []float64) error) error {
	t.Helper()
	bufA, dstA := guarded(n, 0x7ff8_0000_0000_00a1)
	bufB, dstB := guarded(n, 0x3ff0_0000_0000_0000)
	errA, errB := decode(dstA), decode(dstB)
	checkGuards(t, bufA)
	checkGuards(t, bufB)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("decode outcome depends on dst's prior contents: %v vs %v", errA, errB)
	}
	if errA == nil && !sameBits(dstA, dstB) {
		t.Fatalf("decode succeeded without writing every element")
	}
	return errA
}

// FuzzDecodeLossy: arbitrary bytes with any target length decode to an
// error or a full vector, and any vector round-trips through the Lossy
// codec within max(abs, rel·maxAbs) of each 256-element block.
func FuzzDecodeLossy(f *testing.F) {
	f.Add([]byte{blockZero}, uint16(1), 0.0, 1e-6)
	f.Add([]byte{blockRaw, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint16(1), 1e-8, 0.0)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x1b}, uint16(4), 0.0, 1e-4)
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, abs, rel float64) {
		size := int(n) % (maxFuzzLen + 1)
		decodeTwice(t, size, func(dst []float64) error { return decodeLossy(dst, payload) })

		v := floatsOf(payload)
		s := Store{Codec: Lossy, AbsBound: fuzzBound(abs), RelBound: fuzzBound(rel)}
		enc := s.encodeLossy(nil, v)
		buf, got := guarded(len(v), 0)
		if err := decodeLossy(got, enc); err != nil {
			t.Fatalf("encoder output does not decode: %v", err)
		}
		checkGuards(t, buf)
		a, r := s.AbsBound, s.RelBound
		if a <= 0 && r <= 0 {
			r = DefaultRelBound
		}
		for start := 0; start < len(v); start += lossyBlock {
			end := min(start+lossyBlock, len(v))
			maxAbs, finite := 0.0, true
			for _, x := range v[start:end] {
				finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
				maxAbs = math.Max(maxAbs, math.Abs(x))
			}
			bound := math.Max(a, r*maxAbs) * (1 + 1e-9)
			for i := start; i < end; i++ {
				if !finite {
					if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
						t.Fatalf("element %d of a non-finite block: %x, want %x bit for bit",
							i, math.Float64bits(got[i]), math.Float64bits(v[i]))
					}
				} else if d := math.Abs(got[i] - v[i]); !(d <= bound) {
					t.Fatalf("element %d: restored %g, saved %g, error %g over bound %g", i, got[i], v[i], d, bound)
				}
			}
		}
	})
}

// fuzzBound maps a fuzzed bound onto what a Store is configured with: a
// finite, non-negative number.
func fuzzBound(b float64) float64 {
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return 0
	}
	return math.Abs(b)
}

// FuzzDecodeDiff: arbitrary bytes with any target length decode to an
// error or a full vector, in place as well as out of place, and any pair
// (v, ref) round-trips through the Diff codec bit for bit.
func FuzzDecodeDiff(f *testing.F) {
	f.Add([]byte{0x00}, uint16(2))
	f.Add([]byte{0x81, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(2))
	f.Add([]byte{0x01, 0xff}, uint16(1))
	f.Fuzz(func(t *testing.T, payload []byte, n uint16) {
		size := int(n) % (maxFuzzLen + 1)
		ref := make([]float64, size)
		for i := range ref {
			ref[i] = float64(i) - 0.5
		}
		refBefore := append([]float64(nil), ref...)
		var out []float64
		err := decodeTwice(t, size, func(dst []float64) error {
			out = dst
			return decodeDiff(dst, ref, payload)
		})
		if !sameBits(ref, refBefore) {
			t.Fatalf("out-of-place decode wrote into ref")
		}
		buf, inPlace := guarded(size, 0)
		copy(inPlace, ref)
		errIn := decodeDiff(inPlace, inPlace, payload)
		checkGuards(t, buf)
		if (err == nil) != (errIn == nil) {
			t.Fatalf("in-place outcome %v, out-of-place %v", errIn, err)
		}
		if err == nil && !sameBits(inPlace, out) {
			t.Fatalf("in-place decode differs from out-of-place")
		}

		w := floatsOf(payload)
		v, base := w[:len(w)/2], w[len(w)/2:len(w)/2*2]
		enc := encodeDiff(nil, v, base)
		buf, got := guarded(len(v), 0)
		if err := decodeDiff(got, base, enc); err != nil {
			t.Fatalf("encoder output does not decode: %v", err)
		}
		checkGuards(t, buf)
		if !sameBits(got, v) {
			t.Fatalf("diff round trip is not bit for bit")
		}
	})
}
