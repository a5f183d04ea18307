package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// BannedCall flags calls that break determinism or hijack process-level
// side effects inside internal/ library packages:
//
//   - fmt.Print/Printf/Println: library output must flow through injected
//     io.Writers so benchmark tables and fault-injection traces stay
//     capturable and reproducible;
//   - os.Exit and log.Fatal* (which wraps os.Exit): a library must return
//     errors, not kill the solver mid-recovery;
//   - the global math/rand functions (rand.Intn, rand.Float64, rand.Seed,
//     ...): fault injection must draw from an explicitly seeded *rand.Rand
//     so every error scenario replays bit-identically. Constructors
//     (rand.New, rand.NewSource, rand.NewZipf) remain legal.
//
// Packages without an "internal" path element — commands, examples — are
// exempt.
type BannedCall struct {
	Base
}

// NewBannedCall constructs the bannedcall analyzer.
func NewBannedCall() *BannedCall {
	return &BannedCall{Base: NewBase("bannedcall",
		"flags fmt.Print*/os.Exit/log.Fatal*/global math/rand in internal/ library packages")}
}

// randConstructors are the math/rand package-level functions that do not
// touch the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// RunFile implements Analyzer.
func (a *BannedCall) RunFile(pass *Pass, file *ast.File) {
	if !pass.Pkg.Internal {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		name := fn.Name()
		switch fn.Pkg().Path() {
		case "fmt":
			if name == "Print" || name == "Printf" || name == "Println" {
				pass.Reportf(call.Pos(), "fmt.%s writes to process stdout from library code; route output through an injected io.Writer", name)
			}
		case "os":
			if name == "Exit" {
				pass.Reportf(call.Pos(), "os.Exit in library code kills the solver mid-recovery; return an error instead")
			}
		case "log":
			if strings.HasPrefix(name, "Fatal") {
				pass.Reportf(call.Pos(), "log.%s calls os.Exit from library code; return an error instead", name)
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[name] {
				pass.Reportf(call.Pos(), "rand.%s uses the shared global source; draw from an explicitly seeded *rand.Rand so fault injection replays deterministically", name)
			}
		}
		return true
	})
}
