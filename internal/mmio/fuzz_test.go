package mmio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead drives the Matrix Market parser with arbitrary inputs: it must
// never panic, and anything it accepts must produce a structurally valid
// CSR matrix that survives a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2.0\n3 1 -1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("% comment only\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999999\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n")
	f.Add(hugeRows)
	f.Add(billionRows)

	f.Fuzz(func(t *testing.T, input string) {
		a, hdr, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if a == nil {
			t.Fatalf("nil matrix with nil error")
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted matrix fails validation: %v (header %+v)", verr, hdr)
		}
		// Round trip: what we write we must be able to read back with the
		// same shape.
		var buf bytes.Buffer
		if werr := Write(&buf, a); werr != nil {
			t.Fatalf("write of accepted matrix failed: %v", werr)
		}
		b, _, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("round trip read failed: %v", rerr)
		}
		if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
				a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
		}
	})
}
