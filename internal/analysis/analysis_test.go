package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// sharedLoader is reused across golden cases so GOROOT sources are
// type-checked once per test binary.
var sharedLoader *analysis.Loader

func loader(t *testing.T) *analysis.Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := analysis.NewLoader("../..")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// golden formats diagnostics with basename-only file names so expected.txt
// is independent of the checkout path.
func golden(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Category, d.Message)
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	cases := []struct {
		dir string
		azs []analysis.Analyzer
	}{
		{"errdrop", []analysis.Analyzer{analysis.NewErrDrop()}},
		{"bannedcall", []analysis.Analyzer{analysis.NewBannedCall()}},
		// stalesuppress judges directive usage against the analyzers that
		// ran, so its golden case runs the full registry — the way the
		// repo gate does.
		{"stalesuppress", analysis.All()},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := loader(t).LoadDir(filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			if !pkg.Internal {
				t.Fatalf("testdata package %s should count as internal, got Path=%s", tc.dir, pkg.Path)
			}
			got := golden(analysis.Analyze(pkg, tc.azs))
			expPath := filepath.Join("testdata", tc.dir, "expected.txt")
			if *update {
				if err := os.WriteFile(expPath, []byte(got), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if got == "" {
				t.Errorf("golden case produced no findings; testdata must seed positives")
			}
		})
	}
}

// TestInternalScoping checks that bannedcall exempts packages without an
// internal path element.
func TestInternalScoping(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scopemod\n\ngo 1.22\n")
	pkgDir := filepath.Join(dir, "app")
	writeFile(t, filepath.Join(pkgDir, "main.go"), `package app

import "fmt"

func Hello() { fmt.Println("hi") }
`)
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(pkgDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Internal {
		t.Fatalf("package %s should not be internal", pkg.Path)
	}
	if diags := analysis.Analyze(pkg, []analysis.Analyzer{analysis.NewBannedCall()}); len(diags) != 0 {
		t.Errorf("bannedcall fired outside internal/: %v", diags)
	}
}

// TestMalformedIgnore checks that a //lint:ignore directive without a
// category and reason is itself reported, and suppresses nothing.
func TestMalformedIgnore(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module badmod\n\ngo 1.22\n")
	pkgDir := filepath.Join(dir, "internal", "x")
	writeFile(t, filepath.Join(pkgDir, "x.go"), `package x

import "fmt"

func hi() {
	//lint:ignore bannedcall
	fmt.Println("hi")
}
`)
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(pkgDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := analysis.Analyze(pkg, []analysis.Analyzer{analysis.NewBannedCall()})
	var cats []string
	for _, d := range diags {
		cats = append(cats, d.Category)
	}
	if len(diags) != 2 || cats[0] != "lint" || cats[1] != "bannedcall" {
		t.Errorf("want [lint bannedcall] diagnostics, got %v", diags)
	}
}

// TestSuppressionSameLineAndAbove checks both placements of lint:ignore.
func TestSuppressionSameLineAndAbove(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module supmod\n\ngo 1.22\n")
	pkgDir := filepath.Join(dir, "internal", "s")
	writeFile(t, filepath.Join(pkgDir, "s.go"), `package s

import "fmt"

func hi() {
	fmt.Println("a") //lint:ignore bannedcall trailing-style suppression
	//lint:ignore bannedcall comment-above suppression
	fmt.Println("b")
}
`)
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(pkgDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if diags := analysis.Analyze(pkg, []analysis.Analyzer{analysis.NewBannedCall()}); len(diags) != 0 {
		t.Errorf("both placements should suppress, got %v", diags)
	}
}

// TestStaleSuppressOnlyScope checks the -only interaction: a directive for
// an analyzer that did not run is undecidable and must not be reported,
// while an unused directive for an analyzer that did run is stale.
func TestStaleSuppressOnlyScope(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module stalemod\n\ngo 1.22\n")
	pkgDir := filepath.Join(dir, "internal", "s")
	writeFile(t, filepath.Join(pkgDir, "s.go"), `package s

func a() int {
	//lint:ignore errdrop errdrop did not run, so this is undecidable
	return 1
}

func b() int {
	//lint:ignore bannedcall bannedcall ran and found nothing: stale
	return 2
}
`)
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(pkgDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := analysis.Analyze(pkg, []analysis.Analyzer{analysis.NewBannedCall(), analysis.NewStaleSuppress()})
	if len(diags) != 1 || diags[0].Category != "stalesuppress" || diags[0].Pos.Line != 9 {
		t.Errorf("want exactly the bannedcall directive reported stale at line 9, got %v", diags)
	}
}

func TestSelect(t *testing.T) {
	all := analysis.All()
	sel, err := analysis.Select(all, []string{"bannedcall", "errdrop"})
	if err != nil || len(sel) != 2 || sel[0].Name() != "bannedcall" || sel[1].Name() != "errdrop" {
		t.Errorf("Select(bannedcall,errdrop) = %v, %v", sel, err)
	}
	if _, err := analysis.Select(all, []string{"nosuch"}); err == nil {
		t.Errorf("Select with unknown name should fail")
	}
	if sel, err := analysis.Select(all, nil); err != nil || len(sel) != len(all) {
		t.Errorf("empty selection should return all analyzers")
	}
}

// TestRun drives Run over a temporary module: a dirty internal package is
// reported with a module-relative file name, the testdata, hidden and
// underscore copies of it are never descended into, and a single-directory
// pattern loads just that directory.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module runmod\n\ngo 1.22\n")
	dirty := `package p

import "fmt"

func Hi() { fmt.Println("hi") }
`
	for _, rel := range []string{"internal/p", "internal/p/testdata", "internal/.hidden", "internal/_skip"} {
		writeFile(t, filepath.Join(dir, rel, "p.go"), dirty)
	}
	writeFile(t, filepath.Join(dir, "internal/p/p_test.go"), "package p\n\nimport \"fmt\"\n\nfunc init() { fmt.Println(\"test\") }\n")

	want := filepath.Join("internal", "p", "p.go") + ":5:13: bannedcall: fmt.Println writes to process stdout from library code; route output through an injected io.Writer"
	for _, patterns := range [][]string{{"./..."}, {"internal/p"}, {filepath.Join(dir, "internal", "p")}} {
		diags, err := analysis.Run(dir, patterns, analysis.All())
		if err != nil {
			t.Fatalf("Run(%q): %v", patterns, err)
		}
		if len(diags) != 1 || diags[0].String() != want {
			t.Errorf("Run(%q) = %v, want exactly\n%s", patterns, diags, want)
		}
	}

	if _, err := analysis.Run(filepath.Join(dir, "internal"), []string{"./..."}, analysis.All()); err == nil {
		t.Errorf("Run without a go.mod at the root should fail")
	}
	if _, err := analysis.Run(dir, []string{"nosuch/..."}, analysis.All()); err == nil {
		t.Errorf("Run over a missing directory should fail")
	}
	for _, az := range analysis.All() {
		if az.Doc() == "" {
			t.Errorf("%s has no doc line", az.Name())
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
