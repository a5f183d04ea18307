package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/analysis"
)

// chdir switches the working directory for one test and restores it.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestList pins -list as the authoritative analyzer inventory: every
// analyzer the registry knows must appear, with its doc line, and the
// registry holds exactly the three that catch what no test does
// (docs/static_analysis.md, "Mutation table").
func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errOut.String())
	}
	all := analysis.All()
	var names []string
	for _, az := range all {
		names = append(names, az.Name())
	}
	if got := strings.Join(names, " "); got != "errdrop bannedcall stalesuppress" {
		t.Errorf("registry lists %q, want errdrop bannedcall stalesuppress", got)
	}
	if lines := strings.Count(out.String(), "\n"); lines != len(all) {
		t.Errorf("-list printed %d lines for %d analyzers:\n%s", lines, len(all), out.String())
	}
	for _, az := range all {
		if !strings.Contains(out.String(), az.Name()) {
			t.Errorf("-list output missing %s:\n%s", az.Name(), out.String())
		}
		if !strings.Contains(out.String(), az.Doc()) {
			t.Errorf("-list output missing doc for %s", az.Name())
		}
	}
}

func TestUnknownAnalyzerExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nosuch") {
		t.Errorf("stderr should name the unknown analyzer, got %q", errOut.String())
	}
}

// TestJSONShapeAndExitCodes drives the driver over a synthetic module with
// one violation and over the same module once fixed.
func TestJSONShapeAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module lintdrv\n\ngo 1.22\n")
	write("internal/num/num.go", `package num

import "fmt"

func Hello() { fmt.Println("hi") }
`)
	chdir(t, dir)

	var out, errOut bytes.Buffer
	code := run([]string{"-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run on dirty module = %d, want 1 (stderr %q)", code, errOut.String())
	}
	var findings []finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %+v", findings)
	}
	f := findings[0]
	if f.File != filepath.Join("internal", "num", "num.go") || f.Line != 5 || f.Col == 0 ||
		f.Category != "bannedcall" || f.Message == "" {
		t.Errorf("unexpected finding shape: %+v", f)
	}

	write("internal/num/num.go", `package num

import "fmt"

func Hello() string { return fmt.Sprint("hi") }
`)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run on clean module = %d, want 0 (stderr %q)", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean module should emit an empty JSON array, got %q", out.String())
	}
}

// TestBaseline drives the -baseline mode over a synthetic dirty module:
// a matching entry grandfathers its finding, a stale entry fails the run,
// and a missing baseline file is a usage error.
func TestBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module blmod\n\ngo 1.22\n")
	write("internal/num/num.go", `package num

import "fmt"

func Hello() { fmt.Println("hi") }
`)
	chdir(t, dir)

	// Discover the real finding, then grandfather it.
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run on dirty module = %d, want 1 (stderr %q)", code, errOut.String())
	}
	var findings []finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil || len(findings) != 1 {
		t.Fatalf("want 1 JSON finding, got %v (%s)", err, out.String())
	}
	bl, err := json.Marshal([]baselineEntry{{File: findings[0].File, Category: findings[0].Category, Message: findings[0].Message}})
	if err != nil {
		t.Fatal(err)
	}
	write("lint.baseline.json", string(bl))

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", "lint.baseline.json", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("baselined run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Errorf("grandfathered finding still printed: %q", out.String())
	}

	// Fix the code: the baseline entry goes stale and must fail the run.
	write("internal/num/num.go", `package num

import "fmt"

func Hello() string { return fmt.Sprint("hi") }
`)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", "lint.baseline.json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run with stale baseline = %d, want 1 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "stale baseline entry") {
		t.Errorf("stderr should report the stale entry, got %q", errOut.String())
	}

	if code := run([]string{"-baseline", "no-such-file.json", "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("run with missing baseline file = %d, want 2", code)
	}
}

// TestRepoClean is the standing invariant of this PR: the lint gate stays
// green over the whole module — with the full analyzer inventory of
// analysis.All() (what -list prints) and the committed baseline, which is
// expected to stay empty. If this fails, fix the finding or add a
// justified //lint:ignore — do not delete the test.
func TestRepoClean(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", "lint.baseline.json", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("newsum-lint -baseline lint.baseline.json ./... = %d; findings:\n%s%s", code, out.String(), errOut.String())
	}
}
