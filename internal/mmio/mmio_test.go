package mmio

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/sparse"
)

func TestRoundTrip(t *testing.T) {
	a := sparse.Laplacian2D(4, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "lap.mtx")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, hdr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Field != "real" || hdr.Symmetry != "general" {
		t.Fatalf("header: %+v", hdr)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > 0 {
				t.Fatalf("value mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 2.0
`
	a, hdr, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Symmetry != "symmetric" {
		t.Fatalf("symmetry: %q", hdr.Symmetry)
	}
	if a.At(1, 0) != -1 || a.At(0, 1) != -1 {
		t.Fatalf("symmetric expansion failed: %v %v", a.At(1, 0), a.At(0, 1))
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz after expansion: %d", a.NNZ())
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, _, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatalf("pattern values: %v %v", a.At(0, 0), a.At(1, 1))
	}
}

func TestReadInteger(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer general
2 2 1
2 1 7
`
	a, _, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 7 {
		t.Fatalf("integer value: %v", a.At(1, 0))
	}
}

// Size lines that claim more rows than can be allocated: 2⁶² rows made
// building the CSR panic (makeslice: len out of range), and 10⁹ rows asked
// for 16 GB before a single entry was read.
const (
	hugeRows    = "%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n"
	billionRows = "%%MatrixMarket matrix coordinate real general\n1000000000 1 0\n"
)

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad banner":      "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
		"bad format":      "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"bad field":       "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry":    "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"missing size":    "%%MatrixMarket matrix coordinate real general\n",
		"short entries":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"bad row index":   "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
		"out of range":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"bad value":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
		"missing fields":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"negative header": "%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1.0\n",
		"2^62 rows":       hugeRows,
		"billion rows":    billionRows,
	}
	for name, src := range cases {
		if _, _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "nope.mtx")); err == nil {
		t.Fatalf("expected error for missing file")
	}
}

func TestWriteFileCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.mtx")
	if err := WriteFile(path, sparse.Identity(3)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "%%MatrixMarket matrix coordinate real general") {
		t.Fatalf("banner missing: %q", string(data[:40]))
	}
}

func TestRoundTripPreservesPrecision(t *testing.T) {
	c := sparse.NewCOO(1, 1)
	c.Add(0, 0, math.Pi*1e-7)
	a := c.ToCSR()
	path := filepath.Join(t.TempDir(), "pi.mtx")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(0, 0) != a.At(0, 0) {
		t.Fatalf("precision lost: %v vs %v", b.At(0, 0), a.At(0, 0))
	}
}
