package service

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fuzzMaxRows keeps the operators FuzzRequestBuild builds small.
const fuzzMaxRows = 4096

// FuzzRequestBuild drives the request boundary: the fuzzer's bytes are
// decoded as a /solve body the way the HTTP handler decodes one, vetted
// against a small row limit, and every request that passes has its
// operator and right-hand side built. Nothing may panic — a panic there
// happens in a worker goroutine and kills the service — the operator must
// have the rows validation counted, and an admitted rhs exactly that many
// entries. An admitted timeout_ms is a deadline of at most 24 h, and an
// admitted max_iter at most 100 iterations per row. The committed seeds
// include the requests that broke these: a circuit of n = 2, a circuit of
// n = 300 with a 300-entry rhs for its 289-row operator, a timeout_ms of
// 1e13 that wraps negative as a time.Duration, and a max_iter of 2⁶³ − 1.
func FuzzRequestBuild(f *testing.F) {
	for _, body := range []string{
		`{"matrix":{"kind":"laplace2d","n":12}}`,
		`{"solver":"bicgstab","precond":"ilu0","matrix":{"kind":"convection","n":9,"beta":-2.5}}`,
		`{"matrix":{"kind":"circuit","n":17,"seed":3},"rhs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`,
		`{"matrix":{"kind":"spd","n":40,"degree":3,"seed":5}}`,
		`{"matrix":{"kind":"diagdom","n":40,"degree":64,"seed":6}}`,
		`{"matrix":{"kind":"inline","size":2,"rows":[0,1,1],"cols":[0,0,1],"vals":[2,1,2]},"rhs":[1,1]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.validate(fuzzMaxRows) != nil {
			return
		}
		n, err := req.Matrix.rows()
		if err != nil {
			t.Fatalf("validated request has no row count: %v", err)
		}
		if req.TimeoutMillis < 0 || req.TimeoutMillis > int(24*time.Hour/time.Millisecond) {
			t.Fatalf("admitted timeout_ms %d, a deadline of %v", req.TimeoutMillis, time.Duration(req.TimeoutMillis)*time.Millisecond)
		}
		if req.MaxIter < 0 || req.MaxIter > 100*n {
			t.Fatalf("admitted max_iter %d for %d rows", req.MaxIter, n)
		}
		a, err := req.Matrix.build()
		if err != nil {
			t.Fatalf("validated request does not build: %v", err)
		}
		if a.Rows != n || a.Cols != n {
			t.Fatalf("%s operator is %dx%d, validated as %d rows", req.Matrix.Kind, a.Rows, a.Cols, n)
		}
		if req.RHS != nil && len(req.RHS) != a.Rows {
			t.Fatalf("admitted rhs of %d entries for %d rows", len(req.RHS), a.Rows)
		}
		if b := req.rhs(a.Rows); len(b) != a.Rows {
			t.Fatalf("rhs of %d entries for %d rows", len(b), a.Rows)
		}
	})
}
