// Package mmio reads and writes sparse matrices in the NIST Matrix Market
// exchange format, the format the University of Florida Sparse Matrix
// Collection (the paper's source for G3_circuit) distributes. Supported
// variants: "matrix coordinate real|integer|pattern general|symmetric".
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"newsum/internal/sparse"
)

// Header describes the Matrix Market banner of a parsed file.
type Header struct {
	Object   string // "matrix"
	Format   string // "coordinate"
	Field    string // "real", "integer", "pattern"
	Symmetry string // "general", "symmetric"
}

// maxDim bounds the rows and columns a size line may declare, about ten
// times G3_circuit's 1 585 478 rows. The CSR is built with two arrays of
// rows+1 words whatever the entries, so a larger claim is refused first.
const maxDim = 1 << 24

// Read parses a Matrix Market stream into a CSR matrix. Symmetric files are
// expanded to full storage, matching how iterative solvers consume them.
func Read(r io.Reader) (*sparse.CSR, Header, error) {
	var h Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	if !sc.Scan() {
		return nil, h, fmt.Errorf("mmio: empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 4 || banner[0] != "%%matrixmarket" {
		return nil, h, fmt.Errorf("mmio: missing %%%%MatrixMarket banner")
	}
	h.Object, h.Format = banner[1], banner[2]
	h.Field = banner[3]
	h.Symmetry = "general"
	if len(banner) >= 5 {
		h.Symmetry = banner[4]
	}
	if h.Object != "matrix" || h.Format != "coordinate" {
		return nil, h, fmt.Errorf("mmio: unsupported banner %q %q (only matrix coordinate)", h.Object, h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return nil, h, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric":
	default:
		return nil, h, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}

	// Size line: first non-comment line after the banner.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, h, fmt.Errorf("mmio: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, h, fmt.Errorf("mmio: bad size line %q: %v", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, h, fmt.Errorf("mmio: negative dimensions in size line")
	}
	if rows > maxDim || cols > maxDim {
		return nil, h, fmt.Errorf("mmio: size line declares %dx%d, above the %d limit", rows, cols, maxDim)
	}

	coo := sparse.NewCOO(rows, cols)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if h.Field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, h, fmt.Errorf("mmio: entry %d has %d fields, want %d", read+1, len(f), want)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, h, fmt.Errorf("mmio: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, h, fmt.Errorf("mmio: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, h, fmt.Errorf("mmio: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, h, fmt.Errorf("mmio: entry (%d,%d) out of range %dx%d", i, j, rows, cols)
		}
		if h.Symmetry == "symmetric" {
			coo.AddSym(i-1, j-1, v)
		} else {
			coo.Add(i-1, j-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, h, fmt.Errorf("mmio: read error: %w", err)
	}
	if read < nnz {
		return nil, h, fmt.Errorf("mmio: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR(), h, nil
}

// ReadFile parses the Matrix Market file at path.
func ReadFile(path string) (*sparse.CSR, Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Header{}, err
	}
	//lint:ignore errdrop read-only file; Close cannot lose data
	defer f.Close()
	return Read(f)
}

// Write emits a in "matrix coordinate real general" format with full
// (non-symmetric) storage.
func Write(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes a to the Matrix Market file at path, creating or
// truncating it.
func WriteFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		//lint:ignore errdrop the write error is the primary failure being reported
		_ = f.Close()
		return err
	}
	return f.Close()
}
