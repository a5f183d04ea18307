// Package analysis is a self-contained static-analysis framework for the
// newsum codebase, built only on the standard library (go/parser, go/ast,
// go/types, go/importer, go/token).
//
// The checks it hosts guard the bug classes no test catches: an I/O or
// checkpoint error silently dropped, nondeterminism or process control in
// library code (global rand, stray stdout, os.Exit), and a //lint:ignore
// directive that no longer suppresses anything. See docs/static_analysis.md
// for the mutation table that decides which analyzers stay.
//
// Analyzers implement the Analyzer interface and are driven by Run (used
// by cmd/newsum-lint) or directly over a loaded *Package in tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the reporting analyzer's category
// (its Name), and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Category string
	Message  string
}

// String formats a diagnostic the way compilers do: file:line:col: category: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Category, d.Message)
}

// Analyzer is one static check over type-checked source. Name doubles as
// the diagnostic category, the //lint:ignore key, and the driver's -only
// selector.
type Analyzer interface {
	// Name is the short category identifier (e.g. "errdrop").
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// RunFile is called once per loaded (non-test) file of each package.
	RunFile(pass *Pass, file *ast.File)
}

// Base carries an analyzer's name and doc and a no-op RunFile, so concrete
// analyzers embed it and override the hook.
type Base struct {
	name, doc string
}

// NewBase builds the embeddable name/doc core of an analyzer.
func NewBase(name, doc string) Base { return Base{name: name, doc: doc} }

// Name implements Analyzer.
func (b Base) Name() string { return b.name }

// Doc implements Analyzer.
func (b Base) Doc() string { return b.doc }

// RunFile implements Analyzer as a no-op.
func (Base) RunFile(*Pass, *ast.File) {}

// Pass hands one analyzer its view of one package plus the reporting sink.
type Pass struct {
	Pkg    *Package
	report func(Diagnostic)
	name   string
}

// Reportf records a diagnostic at pos under the running analyzer's
// category. Findings suppressed by a //lint:ignore comment on the same or
// the preceding line are dropped.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Category: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the type checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos        token.Position
	categories []string // nil means the directive is malformed
}

// ignoreRecord is one well-formed //lint:ignore directive with its usage
// state: matches marks it used the first time it suppresses a finding, and
// the stalesuppress analyzer reports the records that never fire.
type ignoreRecord struct {
	pos        token.Position
	categories []string
	used       bool
}

// suppressions indexes //lint:ignore directives by filename and line. A
// directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line below it (comment-above style); both index
// entries share one record, so usage is tracked per directive.
type suppressions struct {
	byLine map[string]map[int][]*ignoreRecord
	all    []*ignoreRecord
}

func newSuppressions() *suppressions {
	return &suppressions{byLine: map[string]map[int][]*ignoreRecord{}}
}

func (s *suppressions) add(rec *ignoreRecord) {
	s.all = append(s.all, rec)
	m := s.byLine[rec.pos.Filename]
	if m == nil {
		m = map[int][]*ignoreRecord{}
		s.byLine[rec.pos.Filename] = m
	}
	m[rec.pos.Line] = append(m[rec.pos.Line], rec)
	m[rec.pos.Line+1] = append(m[rec.pos.Line+1], rec)
}

func (s *suppressions) matches(d Diagnostic) bool {
	hit := false
	for _, rec := range s.byLine[d.Pos.Filename][d.Pos.Line] {
		for _, cat := range rec.categories {
			if cat == d.Category {
				rec.used = true
				hit = true
			}
		}
	}
	return hit
}

const ignorePrefix = "//lint:ignore"

// parseIgnores scans a file's comments for //lint:ignore directives. Well
// formed directives ("//lint:ignore cat[,cat...] reason") are indexed into
// sup; malformed ones (missing category or reason) are returned so the
// runner can report them under the "lint" category.
func parseIgnores(fset *token.FileSet, file *ast.File, sup *suppressions) []ignoreDirective {
	var malformed []ignoreDirective
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignorefoo — not our directive
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				malformed = append(malformed, ignoreDirective{pos: pos})
				continue
			}
			cats := strings.Split(fields[0], ",")
			sup.add(&ignoreRecord{pos: pos, categories: cats})
		}
	}
	return malformed
}

// Analyze runs the given analyzers over one loaded package and returns the
// surviving (unsuppressed) diagnostics, sorted by position. Malformed
// //lint:ignore directives are reported under the "lint" category. When
// the stalesuppress analyzer is part of the set it runs last, over the
// usage state the suppression filter just produced.
func Analyze(pkg *Package, analyzers []Analyzer) []Diagnostic {
	sup := newSuppressions()
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, bad := range parseIgnores(pkg.Fset, f, sup) {
			diags = append(diags, Diagnostic{
				Pos:      bad.pos,
				Category: "lint",
				Message:  "malformed //lint:ignore directive; want //lint:ignore <category>[,<category>] <reason>",
			})
		}
	}
	ran := map[string]bool{}
	for _, az := range analyzers {
		ran[az.Name()] = true
	}
	for _, az := range analyzers {
		pass := &Pass{
			Pkg:  pkg,
			name: az.Name(),
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			az.RunFile(pass, f)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.matches(d) {
			kept = append(kept, d)
		}
	}
	// Stale-suppression detection needs the post-filter usage state, so it
	// runs after the loop above; its own findings remain suppressible.
	for _, az := range analyzers {
		ss, ok := az.(*StaleSuppress)
		if !ok {
			continue
		}
		for _, d := range ss.findings(sup, ran) {
			if !sup.matches(d) {
				kept = append(kept, d)
			}
		}
	}
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Category < b.Category
	})
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// errorType is the predeclared error interface, for signature checks.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether any result of sig is exactly error.
func returnsError(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function object of call, if it is a
// direct call of a named function or method (not a func value or builtin).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// isNamedType reports whether t (or the type it points to) is the named
// type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
