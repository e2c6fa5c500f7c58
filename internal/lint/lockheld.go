package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHeld enforces the lock discipline the continuously running
// assimilation pipeline depends on: a mutex must not be held across an
// operation that can block indefinitely — a channel send/receive, a
// select without default, sync.WaitGroup.Wait or time.Sleep. A blocked
// critical section stalls every other goroutine touching that lock; in
// the paper's setting that is the scheduler freezing mid-ensemble.
//
// Held-lock state is a region rule over the syntax tree. A Lock or
// RLock statement holds its key from the statement to the next Lock or
// Unlock statement of that key in the same block, or to the block's
// end; a deferred unlock therefore holds it to the end of the function,
// which is the idiom's point. An Unlock statement in a nested block
// releases the key for the rest of that block, so an early
// `mu.Unlock(); return` branch is outside the region. A lock carried
// past the end of the block that took it — taken in both arms of an
// if, carried out of a loop by break or into another block by goto —
// is not seen. A function literal is a body of its own. The call of a
// go statement runs elsewhere and a deferred call later, but their
// arguments are evaluated where the statement is, so a receive among
// them blocks there. A deferred
// call runs at the function's end: a blocking one is reported when a
// key is held at the end of the body and no deferred unlock of it was
// registered after it (deferred calls run last in, first out, so such
// an unlock would run first). A select is one operation: the
// communications of its clauses are not reported apart, so the send
// of a select with default passes.
//
// Lock identity is canonical-by-type for receiver fields: s.mu and
// m.mu are the same key when s and m share a named type. Two distinct
// instances of one type therefore collapse (documented precision
// loss). The check is intraprocedural: blocking inside a callee is
// invisible.
var LockHeld = &Analyzer{
	Name:  "lockheld",
	Doc:   "flag mutexes held across may-block operations (channel ops, selects, waits, sleeps)",
	Scope: underInternalOrCmd,
	Run:   runLockHeld,
}

// lockCtx carries what lock-key canonicalization needs about the
// package and enclosing function being analyzed.
type lockCtx struct {
	Info *types.Info
	Pkg  *types.Package
	Path string
	// Enclosing qualifies function-local mutex keys; it is the
	// enclosing function's canonical name.
	Enclosing string
}

// lockStmt classifies s as a statement that takes (Lock, RLock) or
// drops (Unlock, RUnlock) a sync.Mutex or sync.RWMutex and returns the
// lock's canonical key, or "" when s is neither.
func lockStmt(ctx *lockCtx, s ast.Stmt) (key string, take bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return lockCall(ctx, call)
}

// lockCall is lockStmt for the call itself, statement or deferred.
func lockCall(ctx *lockCtx, call *ast.CallExpr) (key string, take bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := ctx.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	switch recvNamed(obj) {
	case "Mutex", "RWMutex":
	default:
		return "", false
	}
	switch obj.Name() {
	case "Lock", "RLock":
		return lockKeyOf(ctx, sel.X), true
	case "Unlock", "RUnlock":
		return lockKeyOf(ctx, sel.X), false
	}
	return "", false
}

// lockKeyOf canonicalizes the mutex expression so the same logical
// lock gets the same key in every function:
//
//   - "(pkg.Type).field" for a mutex reached through a value of a
//     named type — receiver-name insensitive, so s.mu in one method
//     and m.mu in another agree;
//   - "pkgpath.var[.field]" for package-level mutexes, local or
//     imported;
//   - "<enclosing>·expr" for function-local mutexes, which cannot be
//     shared across functions except by pointer (not tracked).
func lockKeyOf(ctx *lockCtx, x ast.Expr) string {
	x = ast.Unparen(x)
	path := types.ExprString(x)
	if root := rootIdent(x); root != nil {
		switch obj := ctx.Info.Uses[root].(type) {
		case *types.PkgName:
			return obj.Imported().Path() + strings.TrimPrefix(path, root.Name)
		case *types.Var:
			if obj.Parent() == ctx.Pkg.Scope() {
				return ctx.Path + "." + path
			}
			t := obj.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			// Only selector paths (s.mu) take the receiver-insensitive
			// type-qualified form. A bare local of a named type keeps
			// the function-qualified key below: stripping the root
			// would collapse every atomic.Int64 local in the program
			// into one key.
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && path != root.Name {
				return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")" +
					strings.TrimPrefix(path, root.Name)
			}
		}
	}
	return ctx.Enclosing + "·" + path
}

// A span is where one Lock or Unlock statement decides whether its key
// is held: from the statement's end to the end of its block.
type span struct {
	key      string
	held     bool
	from, to token.Pos
}

// lockSpans lists the spans of body's lock statements. Function
// literals' spans are listed too; no position outside a literal lies
// inside them.
func lockSpans(ctx *lockCtx, body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch v := n.(type) {
		case *ast.BlockStmt:
			list = v.List
		case *ast.CaseClause:
			list = v.Body
		case *ast.CommClause:
			list = v.Body
		}
		for _, s := range list {
			if key, take := lockStmt(ctx, s); key != "" {
				spans = append(spans, span{key: key, held: take, from: s.End(), to: n.End()})
			}
		}
		return true
	})
	return spans
}

// heldAt is the set of keys held at pos: those whose innermost span
// around pos holds them, that is the span of the key's last lock
// statement before pos in a block around pos. Spans of one key nest or
// are disjoint, so the innermost is the one that starts last.
func heldAt(spans []span, pos token.Pos) map[string]bool {
	inner := map[string]span{}
	for _, s := range spans {
		if s.from <= pos && pos < s.to && s.from > inner[s.key].from {
			inner[s.key] = s
		}
	}
	held := map[string]bool{}
	for k, s := range inner {
		if s.held {
			held[k] = true
		}
	}
	return held
}

func runLockHeld(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockHeld(pass, fn, fn.Body)
				}
			case *ast.FuncLit:
				checkLockHeld(pass, fn, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkLockHeld reports the may-block operations of one function body
// that lie where a lock is held.
func checkLockHeld(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	ctx := &lockCtx{Info: pass.Info, Pkg: pass.Pkg, Path: pass.Path, Enclosing: enclosingName(pass, fn)}
	spans := lockSpans(ctx, body)
	if len(spans) == 0 {
		return
	}
	reportHeld := func(desc string, pos token.Pos, held map[string]bool) {
		if len(held) > 0 {
			pass.Reportf(pos, "%s while %s is held can stall the critical section indefinitely; "+
				"release the lock first or make the operation non-blocking",
				desc, strings.Join(sortedKeys(held), ", "))
		}
	}
	report := func(desc string, pos token.Pos) { reportHeld(desc, pos, heldAt(spans, pos)) }
	var visit func(ast.Node) bool
	// spawned walks what a go or defer statement evaluates where it
	// stands: the function value, unless it is a literal, and the
	// arguments.
	spawned := func(call *ast.CallExpr) {
		if _, lit := call.Fun.(*ast.FuncLit); !lit {
			ast.Inspect(call.Fun, visit)
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			spawned(v.Call)
			return false
		case *ast.DeferStmt:
			spawned(v.Call)
			if isBlockingStdCall(ctx.Info, v.Call) {
				reportHeld("deferred "+blockDesc(ctx.Info, v.Call), v.Call.Pos(), heldAtExit(ctx, spans, body, v))
			}
			return false
		case *ast.SendStmt:
			report("channel send", v.Arrow)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				report("channel receive", v.OpPos)
			}
		case *ast.RangeStmt:
			if _, isChan := exprType(ctx.Info, v.X).(*types.Chan); isChan {
				report("range over channel", v.For)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) {
				report("select without default", v.Select)
			}
			for _, c := range v.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.CallExpr:
			if isBlockingStdCall(ctx.Info, v) {
				report(blockDesc(ctx.Info, v), v.Pos())
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// heldAtExit is the set of keys held while the deferred call of d runs:
// those held at the end of body, less those of the deferred unlocks
// registered after d, which run before it.
func heldAtExit(ctx *lockCtx, spans []span, body *ast.BlockStmt, d *ast.DeferStmt) map[string]bool {
	held := heldAt(spans, body.Rbrace)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit {
			return false
		}
		if later, ok := n.(*ast.DeferStmt); ok && later.Pos() > d.Pos() {
			if key, take := lockCall(ctx, later.Call); key != "" && !take {
				delete(held, key)
			}
		}
		return true
	})
	return held
}

func blockDesc(info *types.Info, call *ast.CallExpr) string {
	obj := staticCallee(info, call)
	if obj == nil {
		return "blocking call"
	}
	if r := recvNamed(obj); r != "" {
		return r + "." + obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

func enclosingName(pass *Pass, fn ast.Node) string {
	if fd, ok := fn.(*ast.FuncDecl); ok {
		if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			return obj.FullName()
		}
		return pass.Path + "." + fd.Name.Name
	}
	pos := pass.Fset.Position(fn.Pos())
	return fmt.Sprintf("%s.func@%d:%d", pass.Path, pos.Line, pos.Column)
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isBlockingStdCall recognizes the standard-library calls that block
// indefinitely (or for a programmed duration): sync.WaitGroup.Wait and
// time.Sleep. sync.Cond.Wait is excluded — it must be called with its
// lock held, so flagging it would be wrong by contract.
func isBlockingStdCall(info *types.Info, call *ast.CallExpr) bool {
	obj := staticCallee(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync":
		return obj.Name() == "Wait" && recvNamed(obj) == "WaitGroup"
	case "time":
		return obj.Name() == "Sleep"
	}
	return false
}

// recvNamed returns the bare name of a method's receiver type, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

// rootIdent returns the base identifier an expression reads through:
// x, x.f, x[i], x.f[i].g, (*x), x.m(...) all root at x. Returns nil
// when there is no single base identifier (composite literals, calls
// of package functions, constants).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
