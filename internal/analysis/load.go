package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("newsum/internal/par").
	Path string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Internal reports whether an "internal" element appears in Path, i.e.
	// the package is library code (analyzers like bannedcall scope to it).
	Internal bool

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module. Imports within the
// module are resolved by recursively loading the imported directory;
// standard-library imports are type-checked from GOROOT source via
// go/importer. _test.go files, files the default build excludes and
// testdata directories are ignored, which matches the analyzers' scope
// (they only police non-test code the host build compiles).
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle detection
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader creates a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	l := &Loader{
		Root:       abs,
		ModulePath: string(m[1]),
		Fset:       token.NewFileSet(),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// Import implements types.Importer: module-local paths load recursively,
// everything else defers to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir loads the package in dir. Directories outside the module tree
// (e.g. testdata packages in analyzer tests) are given a synthetic import
// path derived from their base name.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPath(abs)
	return l.load(path, abs)
}

// importPath maps an absolute directory to its module import path, or to a
// synthetic path for directories outside the module.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "testdata.invalid/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// load parses and type-checks the package in dir, caching by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:     path,
		Dir:      dir,
		Internal: isInternalPath(path),
		Fset:     l.Fset,
		Files:    files,
		Types:    tpkg,
		Info:     info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func isInternalPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// goFiles lists the non-test .go files of dir that the default build would
// compile, sorted: a file excluded by a //go:build line or a GOOS/GOARCH
// name suffix is skipped, so a package that pairs an assembly-backed
// declaration with a tagged portable fallback type-checks as one program.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: reading build constraints: %w", err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// PackageDirs expands dir patterns relative to root. A trailing "/..."
// recurses into every package directory below the prefix; other patterns
// name a single directory. testdata, hidden, and underscore-prefixed
// directories are never descended into.
func PackageDirs(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goFiles(p)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Run loads every package matched by patterns under root and applies the
// analyzers, returning all surviving diagnostics sorted by position, with
// file names made relative to root.
func Run(root string, patterns []string, analyzers []Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := PackageDirs(loader.Root, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		diags = append(diags, Analyze(pkg, analyzers)...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(loader.Root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}
