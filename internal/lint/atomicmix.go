package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix flags a read-modify-write of a typed atomic split across
// two operations — x.Store(x.Load()+1) — which is two atomic steps, not
// one: a concurrent update between the Load and the Store is lost. Add
// or a CompareAndSwap loop is the single-operation form; a Load feeding
// a CompareAndSwap is that loop's idiom and passes.
//
// The mix the name refers to — a word accessed through the sync/atomic
// functions in one place and plainly in another — is not checked: the
// tree declares every atomic as a sync/atomic type, and the type system
// forbids the plain access.
var AtomicMix = &Analyzer{
	Name:  "atomicmix",
	Doc:   "flag a typed atomic's read-modify-write split across separate Load and Store operations",
	Scope: underInternalOrCmd,
	Run:   runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctx := &lockCtx{Info: pass.Info, Pkg: pass.Pkg, Path: pass.Path, Enclosing: enclosingName(pass, fd)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				x, ok := typedAtomicCall(pass.Info, call, "Store")
				if !ok {
					return true
				}
				key := lockKeyOf(ctx, x)
				if loadsAtomic(pass.Info, ctx, call.Args[0], key) {
					pass.Reportf(call.Pos(), "read-modify-write of %s is two atomic operations, not one; "+
						"a concurrent update between the Load and the Store is lost — use Add or a CompareAndSwap loop", key)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// typedAtomicCall returns the receiver of call when it is method name
// on one of sync/atomic's typed wrappers.
func typedAtomicCall(info *types.Info, call *ast.CallExpr, name string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	tv, ok := info.Types[sel.X]
	return sel.X, ok && isTypedAtomic(tv.Type)
}

// loadsAtomic reports whether e contains a Load of the typed atomic
// with the given key.
func loadsAtomic(info *types.Info, ctx *lockCtx, e ast.Expr, key string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found && len(call.Args) == 0 {
			if x, ok := typedAtomicCall(info, call, "Load"); ok && lockKeyOf(ctx, x) == key {
				found = true
			}
		}
		return !found
	})
	return found
}
