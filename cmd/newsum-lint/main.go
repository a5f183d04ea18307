// Command newsum-lint runs the repo's static-analysis gate: the analyzers
// of internal/analysis (errdrop, bannedcall, stalesuppress) over the
// packages named by its arguments.
//
// Usage:
//
//	newsum-lint [flags] [patterns...]
//
// Patterns are package directories; a trailing /... recurses ("./..." is
// the default). Flags:
//
//	-json           emit findings as a JSON array instead of text
//	-only cat,cat   run only the named analyzers
//	-list           print the analyzer set and exit
//	-baseline file  filter findings against a committed JSON baseline
//
// A baseline file is a JSON array of {file, category, message} entries
// (no line numbers, so unrelated edits cannot churn it): findings matching
// an entry are grandfathered and filtered out, and entries matching no
// finding are themselves reported as stale so the baseline can only
// shrink. The repo commits an empty baseline (lint.baseline.json) — the
// mechanism exists for bootstrapping new analyzers over a large tree.
//
// Exit status is 0 when no findings survive //lint:ignore suppression and
// the baseline has no stale entries, 1 when findings or stale entries
// remain, and 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"newsum/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf and fprintln route CLI output to the injected streams. A failed
// write to stdout/stderr leaves the driver nothing to report with, so the
// error is consciously dropped.
func fprintf(w io.Writer, format string, args ...any) {
	//lint:ignore errdrop CLI output failure is unactionable from inside the CLI
	_, _ = fmt.Fprintf(w, format, args...)
}

func fprintln(w io.Writer, args ...any) {
	//lint:ignore errdrop CLI output failure is unactionable from inside the CLI
	_, _ = fmt.Fprintln(w, args...)
}

// finding is the stable JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("newsum-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	only := fs.String("only", "", "comma-separated analyzer allowlist (default: all)")
	list := fs.Bool("list", false, "print the analyzer set and exit")
	baselinePath := fs.String("baseline", "", "JSON baseline of grandfathered findings; stale entries are reported")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, az := range analyzers {
			fprintf(stdout, "%-15s %s\n", az.Name(), az.Doc())
		}
		return 0
	}
	if *only != "" {
		var err error
		analyzers, err = analysis.Select(analyzers, strings.Split(*only, ","))
		if err != nil {
			fprintln(stderr, err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fprintln(stderr, err)
		return 2
	}
	// Resolve patterns against the invocation directory, not the module
	// root, so "./..." in a subdirectory lints just that subtree.
	resolved := make([]string, len(patterns))
	for i, pat := range patterns {
		resolved[i] = absPattern(pat)
	}

	diags, err := analysis.Run(root, resolved, analyzers)
	if err != nil {
		fprintln(stderr, err)
		return 2
	}

	stale := 0
	if *baselinePath != "" {
		var staleEntries []baselineEntry
		diags, staleEntries, err = applyBaseline(diags, *baselinePath)
		if err != nil {
			fprintln(stderr, err)
			return 2
		}
		stale = len(staleEntries)
		for _, e := range staleEntries {
			fprintf(stderr, "newsum-lint: stale baseline entry (no matching finding): %s: %s: %s\n", e.File, e.Category, e.Message)
		}
	}

	if *jsonOut {
		out := make([]finding, len(diags))
		for i, d := range diags {
			out[i] = finding{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Category: d.Category, Message: d.Message}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fprintln(stdout, d)
		}
	}
	if len(diags) > 0 || stale > 0 {
		return 1
	}
	return 0
}

// baselineEntry is one grandfathered finding. Line numbers are deliberately
// absent: a baseline should pin a known debt, not a file layout.
type baselineEntry struct {
	File     string `json:"file"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

// applyBaseline splits diags into surviving findings and reports baseline
// entries that matched nothing (stale debt that must be deleted).
func applyBaseline(diags []analysis.Diagnostic, path string) (kept []analysis.Diagnostic, staleEntries []baselineEntry, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("newsum-lint: reading baseline: %w", err)
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, nil, fmt.Errorf("newsum-lint: parsing baseline %s: %w", path, err)
	}
	matched := make([]bool, len(entries))
	kept = diags[:0]
	for _, d := range diags {
		grandfathered := false
		for i, e := range entries {
			if d.Pos.Filename == e.File && d.Category == e.Category && d.Message == e.Message {
				matched[i] = true
				grandfathered = true
			}
		}
		if !grandfathered {
			kept = append(kept, d)
		}
	}
	for i, e := range entries {
		if !matched[i] {
			staleEntries = append(staleEntries, e)
		}
	}
	return kept, staleEntries, nil
}

// absPattern makes a pattern absolute while preserving a /... suffix.
func absPattern(pat string) string {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if pat == "" {
			pat = "."
		}
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		abs = pat
	}
	if recursive {
		return abs + "/..."
	}
	return abs
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("newsum-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
