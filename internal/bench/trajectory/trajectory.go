// Package trajectory persists benchmark results across PRs as an
// append-only JSON history and gates regressions against it.
//
// The on-disk shape is the github-action-benchmark format both related
// repos commit under dev/bench/data.js (sanmarg/pack, Eyas/xwgen; see
// SNIPPETS.md): a file holds named suites, a suite holds one record per
// recorded run, and a record holds the commit it measured plus a flat
// list of {name, value, unit, extra} benches. One record captures the
// deterministic units of a run — B/op, allocs/op, and this repo's custom
// ones (detection-latency iterations, SDC rate, wasted iterations, stored
// bytes); wall times are benchmark/'s to take and are not recorded here.
//
// Two layers, one feed:
//
//   - parse.go turns `go test -bench` output (raw text or the test2json
//     `-json` stream) into benches, so the root bench_test.go suite can be
//     piped straight into a committed BENCH_*.json trajectory;
//   - compare.go diffs a fresh run against the latest committed record
//     with per-unit regression rules, the verify.sh standing gate.
package trajectory

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Bench is one measured metric: a benchmark name, a value, and the unit
// that gives the value meaning (and selects its regression rule). The
// field order mirrors the dev/bench/data.js records exactly.
type Bench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// Commit identifies the commit a record measured.
type Commit struct {
	ID        string `json:"id"`
	Message   string `json:"message,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
}

// Record is one recorded run: the github-action-benchmark entry shape.
type Record struct {
	Commit  Commit  `json:"commit"`
	Date    int64   `json:"date"` // unix milliseconds
	Tool    string  `json:"tool"` // always "go"
	Benches []Bench `json:"benches"`
}

// File is a whole trajectory file: suites of append-only records.
type File struct {
	LastUpdate int64               `json:"lastUpdate"`
	RepoURL    string              `json:"repoUrl,omitempty"`
	Entries    map[string][]Record `json:"entries"`
}

// Decode parses a trajectory file.
func Decode(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trajectory: decode: %w", err)
	}
	if f.Entries == nil {
		f.Entries = map[string][]Record{}
	}
	return &f, nil
}

// Encode renders the file as indented JSON with a trailing newline. The
// encoding is deterministic — struct fields in declaration order, map
// keys sorted, floats in Go's shortest round-trippable form — so
// encode → decode → encode is byte-identical and committed trajectories
// diff cleanly.
func (f *File) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, fmt.Errorf("trajectory: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Load reads a trajectory file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trajectory: %w", err)
	}
	return Decode(data)
}

// LoadOrEmpty is Load, except a missing file yields an empty trajectory —
// the state before the first recorded run.
func LoadOrEmpty(path string) (*File, error) {
	f, err := Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &File{Entries: map[string][]Record{}}, nil
	}
	return f, err
}

// Save writes the encoded file.
func (f *File) Save(path string) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	return nil
}

// Append adds one record to a suite and advances LastUpdate.
func (f *File) Append(suite string, r Record) {
	if f.Entries == nil {
		f.Entries = map[string][]Record{}
	}
	f.Entries[suite] = append(f.Entries[suite], r)
	if r.Date > f.LastUpdate {
		f.LastUpdate = r.Date
	}
}

// Trim keeps only the newest max records of a suite (the append-only
// history stays bounded in the repo). max <= 0 leaves the suite alone.
func (f *File) Trim(suite string, max int) {
	rs := f.Entries[suite]
	if max <= 0 || len(rs) <= max {
		return
	}
	f.Entries[suite] = rs[len(rs)-max:]
}

// Latest returns the newest record of a suite — the committed baseline a
// fresh run is compared against.
func (f *File) Latest(suite string) (Record, bool) {
	rs := f.Entries[suite]
	if len(rs) == 0 {
		return Record{}, false
	}
	return rs[len(rs)-1], true
}
