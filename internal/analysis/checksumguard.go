package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChecksumGuard enforces the paper's checksum-coverage invariant inside
// protected functions: every write to a declared protected vector must
// flow through a call (the internal/vec, internal/kernel and
// internal/checksum operations, which maintain the cᵀv checksum and its
// η error bound alongside the data — Eqs. 2–4), never through raw
// element syntax. A raw write desynchronizes vector and checksum, which
// either masks a real fault or triggers a false detection and a wasted
// rollback. Four findings:
//
//   - an indexed write v[i] = ..., v.data[i] -= ... to a protected vector;
//   - a builtin copy into a protected vector;
//   - a direct assignment replacing a protected vector or one of its
//     fields (v = ..., v.data = ...);
//   - a re-slice of a protected vector (v.data[a:b]) — the alias escapes
//     the guard, so later writes through it would be invisible.
//
// Calls receiving protected vectors as arguments are the sanctioned path
// and always pass; the one raw anchor write lives in checksum.Anchor,
// which re-derives the checksum from a fresh reduction.
//
// A function is protected by a directive in its doc comment:
//
//	//hot:protected <name>...
//
// Every variable the function body uses under a listed name is protected
// (so shadowing cannot smuggle a write past the guard), and a name that
// matches none is reported. The solver steps (x, r, p, ... of PCG,
// BiCGStab, CR, Jacobi, Chebyshev) and the engine's operation methods
// carry one. Any other //hot: comment — a directive elsewhere, an unknown
// kind, an empty name list — is reported too, so a stale annotation fails
// the lint instead of guarding nothing.
type ChecksumGuard struct {
	Base
}

// NewChecksumGuard constructs the checksumguard analyzer.
func NewChecksumGuard() *ChecksumGuard {
	return &ChecksumGuard{Base: NewBase("checksumguard",
		"flags raw writes and aliasing re-slices of //hot:protected vectors that bypass the checksum-maintaining ops")}
}

// RunPackage implements Analyzer.
func (a *ChecksumGuard) RunPackage(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil && fn.Body != nil {
				docOf[fn.Doc] = fn
			}
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, "//hot:")
				if !ok {
					continue
				}
				kind, args, _ := strings.Cut(rest, " ")
				names := strings.Fields(args)
				fn := docOf[group]
				switch {
				case kind != "protected":
					pass.Reportf(c.Pos(), "unknown //hot:%s directive (want //hot:protected <name>...)", kind)
				case fn == nil:
					pass.Reportf(c.Pos(), "//hot:protected must sit in the doc comment of a function declaration with a body")
				case len(names) == 0:
					pass.Reportf(c.Pos(), "//hot:protected needs at least one vector name")
				default:
					guardFunc(pass, fn, names, c.Pos())
				}
			}
		}
	}
}

// guardFunc resolves a protected function's declared names to the
// variables its body uses under them and checks every write to those.
func guardFunc(pass *Pass, fn *ast.FuncDecl, names []string, pos token.Pos) {
	found := map[string]bool{}
	for _, name := range names {
		found[name] = false
	}
	objs := map[types.Object]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, declared := found[id.Name]; declared {
				if v, ok := pass.ObjectOf(id).(*types.Var); ok {
					objs[v] = id.Name
					found[id.Name] = true
				}
			}
		}
		return true
	})
	for _, name := range names {
		if !found[name] {
			pass.Reportf(pos, "//hot:protected name %q does not resolve to a variable in its function", name)
		}
	}
	if len(objs) == 0 {
		return
	}
	g := &guardWalker{pass: pass, objs: objs}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n != nil {
			g.visit(n)
		}
		return true
	})
}

// guardWalker checks one protected function against its protected-object set.
type guardWalker struct {
	pass *Pass
	objs map[types.Object]string
}

func (g *guardWalker) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			g.checkWrite(lhs)
		}
	case *ast.IncDecStmt:
		g.checkWrite(n.X)
	case *ast.CallExpr:
		if calleeBuiltin(g.pass, n) == "copy" && len(n.Args) == 2 {
			if name, ok := g.protected(n.Args[0]); ok {
				g.pass.Reportf(n.Pos(),
					"copy into protected vector %q bypasses checksum maintenance; use the vec/kernel/checksum ops", name)
			}
		}
	case *ast.SliceExpr:
		if name, ok := g.protected(n.X); ok {
			g.pass.Reportf(n.Pos(),
				"re-slice aliases protected vector %q; writes through the alias escape the checksum guard", name)
		}
	case *ast.UnaryExpr:
		// &v.data[i] or &v would let the write happen through a pointer
		// the guard cannot see.
		if n.Op == token.AND {
			if name, ok := g.protected(n.X); ok {
				g.pass.Reportf(n.Pos(),
					"taking the address of protected vector %q lets writes escape the checksum guard", name)
			}
		}
	}
}

// checkWrite reports a raw assignment target rooted at a protected object.
func (g *guardWalker) checkWrite(lhs ast.Expr) {
	name, ok := g.protected(lhs)
	if !ok {
		return
	}
	if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
		g.pass.Reportf(lhs.Pos(),
			"raw indexed write to protected vector %q bypasses checksum maintenance; route it through the vec/kernel/checksum ops", name)
		return
	}
	g.pass.Reportf(lhs.Pos(),
		"direct assignment to protected vector %q bypasses checksum maintenance; route it through the vec/kernel/checksum ops", name)
}

// protected resolves e's base variable against the protected set.
func (g *guardWalker) protected(e ast.Expr) (string, bool) {
	obj := baseObject(g.pass, e)
	if obj == nil {
		return "", false
	}
	name, ok := g.objs[obj]
	return name, ok
}

// baseObject resolves the variable at the base of an index, slice, selector
// or pointer chain: x, x.data, x.data[i], x.s[1:] all resolve to x's
// object. It returns nil for bases that are not simple variables.
func baseObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeBuiltin names the builtin a call invokes, or "".
func calleeBuiltin(pass *Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
