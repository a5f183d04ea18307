package checksum

import (
	"math"
	"testing"

	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// stageMats returns stage matrices of a's order cut from it: its lower and
// upper triangles, as a factor's stages are.
func stageMats(a *sparse.CSR) []precond.Stage {
	l, u := a.BlockTriangles(0, a.Rows, 4)
	return []precond.Stage{{M: l}, {M: u}}
}

// heldStage returns the memo's entry for a weight count.
func heldStage(e *Encoding, weights int) *Held[stageRows] {
	e.stg.Lock()
	defer e.stg.Unlock()
	return e.stg.held[weights-1]
}

// TestStageRowsAdmitOnSecondDerivation: the first StageRows call derives
// and holds its rows as a candidate; the second derives again, agrees and
// admits the candidate, and returns it; the third is served the admitted
// rows without deriving, allocating nothing. Every call's rows are
// EncodeStages' under the Encoding's d, bit for bit, with Single and with
// Triple weights, and the two weight counts hold their entries side by
// side.
func TestStageRowsAdmitOnSecondDerivation(t *testing.T) {
	a := sparse.ConvectionDiffusion2D(13, 11, 40)
	enc := NewEncoding(a, 0)
	ms := stageMats(a)
	for _, ws := range [][]Weight{Single, Triple} {
		want := EncodeStages(ms, ws, enc.D)
		var first []*Matrix
		for call := 1; call <= 3; call++ {
			got := enc.StageRows(ms, ws)
			if !RowsAgree(got, want) {
				t.Fatalf("%d weights, call %d: rows differ from EncodeStages'", len(ws), call)
			}
			if call == 1 {
				first = got
			} else if &got[0] != &first[0] {
				t.Fatalf("%d weights, call %d: not served the first call's rows", len(ws), call)
			}
			if h := heldStage(enc, len(ws)); h.Admitted != (call >= 2) {
				t.Fatalf("%d weights, after call %d: admitted %v", len(ws), call, h.Admitted)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { enc.StageRows(ms, ws) }); allocs != 0 {
			t.Errorf("%d weights: a served call allocates %v times", len(ws), allocs)
		}
	}
	if !heldStage(enc, len(Single)).Admitted || !heldStage(enc, len(Triple)).Admitted {
		t.Errorf("the Triple entry evicted the Single one")
	}
}

// TestStageRowsRejectDisagreeingDerivations: a candidate one bit off a
// later derivation (the bit flipped in the held rows, a strike during or
// after the first derivation) is not admitted and never served again; the
// later derivation replaces it and is admitted by the next that agrees.
func TestStageRowsRejectDisagreeingDerivations(t *testing.T) {
	a := sparse.Laplacian2D(12, 12)
	enc := NewEncoding(a, 0)
	ms := stageMats(a)
	struck := enc.StageRows(ms, Single)
	r := struck[1].Rows[0]
	r[5] = math.Float64frombits(math.Float64bits(r[5]) ^ 1)
	var second []*Matrix
	for call := 2; call <= 4; call++ {
		got := enc.StageRows(ms, Single)
		if &got[0] == &struck[0] {
			t.Fatalf("call %d was served the struck candidate", call)
		}
		if call == 2 {
			second = got
		} else if &got[0] != &second[0] {
			t.Fatalf("call %d was not served the second call's derivation", call)
		}
		if h := heldStage(enc, 1); h.Admitted != (call >= 3) {
			t.Fatalf("after call %d: admitted %v", call, h.Admitted)
		}
	}
	if !RowsAgree(second, EncodeStages(ms, Single, enc.D)) {
		t.Error("the admitted rows are not EncodeStages'")
	}
}

// TestHeldOffer is the admission rule alone: nothing held takes the fresh
// value as a candidate; a candidate is admitted, keeping its own value,
// when the fresh one agrees, and replaced by it when not; an admitted
// entry stays as it is, whatever a racing derivation gave.
func TestHeldOffer(t *testing.T) {
	agree := func(x, y int) bool { return x == y }
	var none *Held[int]
	cand := none.Offer(1, agree)
	if cand.Value != 1 || cand.Admitted {
		t.Fatalf("nothing held: got %+v, want candidate 1", *cand)
	}
	if h := cand.Offer(2, agree); h.Value != 2 || h.Admitted {
		t.Fatalf("disagreeing candidate: got %+v, want candidate 2", *h)
	}
	adm := cand.Offer(1, agree)
	if adm.Value != 1 || !adm.Admitted || cand.Admitted {
		t.Fatalf("agreeing candidate: got %+v (held now %+v), want 1 admitted in a new entry", *adm, *cand)
	}
	if h := adm.Offer(2, agree); h != adm {
		t.Fatalf("admitted entry replaced by %+v", *h)
	}
}

// TestStageRowsMissOnAnotherPreconditioner: stage matrices equal in every
// value to the admitted ones but at other addresses, as a second
// preconditioner built from the same operator has, miss the memo: their
// rows are derived afresh and replace the entry as a candidate.
func TestStageRowsMissOnAnotherPreconditioner(t *testing.T) {
	a := sparse.Laplacian2D(12, 12)
	enc := NewEncoding(a, 0)
	ms := stageMats(a)
	admitted := enc.StageRows(ms, Single)
	enc.StageRows(ms, Single)
	other := []precond.Stage{{M: ms[0].M.Clone()}, {M: ms[1].M.Clone()}}
	got := enc.StageRows(other, Single)
	if &got[0] == &admitted[0] {
		t.Fatal("another preconditioner's stages were served the admitted rows")
	}
	if !RowsAgree(got, admitted) {
		t.Fatal("equal stage values encoded to other rows")
	}
	if h := heldStage(enc, 1); h.Admitted || &h.Value.stages[0] != &other[0] {
		t.Errorf("the other preconditioner's rows did not replace the entry as a candidate (admitted %v)", h.Admitted)
	}
}

// TestEqualBitsIgnoresStageRows: an Encoding whose memo holds stage rows
// is EqualBits to a fresh one.
func TestEqualBitsIgnoresStageRows(t *testing.T) {
	a := sparse.Laplacian2D(12, 12)
	enc := NewEncoding(a, 0)
	enc.StageRows(stageMats(a), Single)
	enc.StageRows(stageMats(a), Triple)
	if !enc.EqualBits(NewEncoding(a, 0)) || !NewEncoding(a, 0).EqualBits(enc) {
		t.Error("the stage-row memo entered EqualBits")
	}
}
