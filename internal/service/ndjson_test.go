package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// ndjsonCases covers the escaping surface of the progress encoder: plain
// ASCII, every short-form escape, HTML-unsafe characters, raw control
// bytes, non-ASCII UTF-8 passthrough, the JavaScript line terminators,
// invalid UTF-8, and the omitempty elision of Detail.
var ndjsonCases = []JobEvent{
	{JobID: "job-1", Seq: 0, Event: "accepted", Attempt: 1},
	{JobID: "job-1", Seq: 3, Event: "attempt_start", Attempt: 2, Detail: "retry after rollback storm"},
	{JobID: `q"uo\te`, Seq: -7, Event: "a\nb\rc\td", Attempt: 0, Detail: "<solver> & \"friends\""},
	{JobID: "\x00\x01\x1f\x7f", Seq: 1 << 40, Event: "done", Attempt: 3, Detail: "π ≈ 3.14159 — naïve"},
	{JobID: "", Seq: 0, Event: "", Attempt: 0, Detail: ""},
	{JobID: "ctrl\x08\x0b\x0c", Seq: 42, Event: "progress", Attempt: 9, Detail: "residual 1.2e-9 < tol"},
	// U+2028 and U+2029 are escaped; an invalid byte becomes an escaped U+FFFD.
	{JobID: "job-2", Seq: 1, Event: "attempt", Attempt: 1, Detail: "a\xe2\x80\xa8b"},
	{JobID: "job-2", Seq: 2, Event: "retry", Attempt: 1, Detail: "c\xe2\x80\xa9d"},
	{JobID: "job-2", Seq: 3, Event: "result", Attempt: 2, Detail: "bad\xffutf8"},
}

// TestEncodeProgressMatchesEncodingJSON pins the hand-rolled progress
// encoder byte-for-byte against the json.Encoder rendering it replaced, so
// stream consumers cannot observe the optimization.
func TestEncodeProgressMatchesEncodingJSON(t *testing.T) {
	var enc progressEncoder
	for _, ev := range ndjsonCases {
		ev := ev
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(streamLine{Event: "progress", Job: &ev}); err != nil {
			t.Fatalf("encoding/json reference: %v", err)
		}
		got := enc.encodeProgress(&ev)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("event %+v:\n got  %q\n want %q", ev, got, want.Bytes())
		}
	}
}

// TestEncodeProgressSteadyStateAllocs asserts the encoder's contract: after
// the buffer reaches its high-water mark, encoding further events performs
// zero heap allocations. (The json.Encoder path it replaced measured ~5
// allocs per event.)
func TestEncodeProgressSteadyStateAllocs(t *testing.T) {
	var enc progressEncoder
	for i := range ndjsonCases {
		enc.encodeProgress(&ndjsonCases[i]) // reach the high-water mark
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ndjsonCases {
			enc.encodeProgress(&ndjsonCases[i])
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state encodeProgress: %v allocs/run, want 0", allocs)
	}
}

// FuzzEncodeProgress holds the progress encoder to encoding/json's bytes for
// arbitrary field contents. The router relays a line that starts with the
// encoder's prefix without decoding it, so this equality is what makes that
// shortcut sound.
func FuzzEncodeProgress(f *testing.F) {
	for _, ev := range ndjsonCases {
		f.Add(ev.JobID, ev.Seq, ev.Event, ev.Attempt, ev.Detail)
	}
	f.Add("\xed\xa0\x80", -1, "\xc3", 1<<62, "\xf4\x90\x80\x80 and \xe2\x80")
	var enc progressEncoder
	f.Fuzz(func(t *testing.T, jobID string, seq int, event string, attempt int, detail string) {
		ev := JobEvent{JobID: jobID, Seq: seq, Event: event, Attempt: attempt, Detail: detail}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(streamLine{Event: "progress", Job: &ev}); err != nil {
			t.Fatalf("encoding/json reference: %v", err)
		}
		if got := enc.encodeProgress(&ev); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %+v:\n got  %q\n want %q", ev, got, want.Bytes())
		}
	})
}
