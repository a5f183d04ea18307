package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "queue", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "solve", Start: 20, End: 50},   // overlaps queue: 30..50 is new
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},   // only 90..100 lies inside the parent
		{ID: 5, Parent: 3, Name: "kernel", Start: 25, End: 45},  // a grandchild counts against its own parent only
		{ID: 6, Parent: 1, Name: "before", Start: -20, End: -5}, // outside the parent: covers nothing
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsParentsAndTraceIDs(t *testing.T) {
	var none *tracer
	if id := none.add("x", 0, 0, time.Now(), time.Now(), 1, 0); id != 0 {
		t.Errorf("a nil tracer returned span %d", id)
	}
	none.finish(none.open("x", 0, 0, time.Now()), time.Now(), 1, 1) // must not panic

	tr := newTracer()
	t0 := tr.t0
	root := tr.open("round", 0, 0, t0)
	kid := tr.add("solve", root, root, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond), 7, 64)
	tr.finish(root, t0.Add(5*time.Millisecond), 3, 0)
	if root != 1 || kid != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", root, kid)
	}
	want := []span{
		{ID: 1, TraceID: 1, Name: "round", Start: 0, End: 5e6, Count: 3},
		{ID: 2, Parent: 1, TraceID: 1, Name: "solve", Start: 1e6, End: 3e6, Count: 7, Bytes: 64},
	}
	if !reflect.DeepEqual(tr.spans, want) {
		t.Errorf("spans = %+v\nwant    %+v", tr.spans, want)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tf := traceFile{Workload: "router_tiny", Seed: 7, Host: hostInfo{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.22", GOARCH: "amd64", Caches: []string{"L2 Unified 2048K"}},
		Spans: []span{{ID: 1, TraceID: 1, Name: "job.main", Start: 5, End: 90, Count: 1}, {ID: 2, Parent: 1, TraceID: 1, Name: "service.solve", Start: 20, End: 70, Count: 1, Bytes: 4096}}}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := writeTrace(path, tf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tf) {
		t.Errorf("read back %+v\nwrote     %+v", back, tf)
	}
}
