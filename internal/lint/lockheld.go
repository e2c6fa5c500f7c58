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
// Held-lock state is a must-analysis (forward dataflow, meet =
// intersection): a lock counts as held at a point only when every path
// to it acquired the lock without releasing. Deferred unlocks keep the
// lock held through the body by design — that is the idiom's point.
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

// lockOp classifies what a call does to a mutex.
type lockOp int

const (
	lockNone lockOp = iota
	lockTake
	lockDrop
)

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

// lockCall classifies call as a sync.Mutex/sync.RWMutex acquisition or
// release and returns the lock's canonical key.
func lockCall(ctx *lockCtx, call *ast.CallExpr) (string, lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	obj, ok := ctx.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", lockNone
	}
	switch recvNamed(obj) {
	case "Mutex", "RWMutex":
	default:
		return "", lockNone
	}
	var op lockOp
	switch obj.Name() {
	case "Lock", "RLock":
		op = lockTake
	case "Unlock", "RUnlock":
		op = lockDrop
	default:
		return "", lockNone
	}
	return lockKeyOf(ctx, sel.X), op
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

// heldSet is the must-held lock fact: key → held on every path. A nil
// set is the solver's Top (unreached).
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// heldFlow is the FlowAnalysis tracking which locks are held.
type heldFlow struct {
	ctx *lockCtx
}

func (h *heldFlow) Boundary() Fact { return heldSet{} }
func (h *heldFlow) Top() Fact      { return heldSet(nil) }

func (h *heldFlow) Transfer(b *Block, in Fact) Fact {
	st, _ := in.(heldSet)
	if st == nil {
		return heldSet(nil)
	}
	out := st.clone()
	for _, n := range b.Nodes {
		replayHeld(h.ctx, n, out, nil)
	}
	return out
}

func (h *heldFlow) Meet(a, b Fact) Fact {
	sa, _ := a.(heldSet)
	sb, _ := b.(heldSet)
	if sa == nil {
		return sb
	}
	if sb == nil {
		return sa
	}
	m := heldSet{}
	for k := range sa {
		if sb[k] {
			m[k] = true
		}
	}
	return m
}

func (h *heldFlow) Equal(a, b Fact) bool {
	sa, _ := a.(heldSet)
	sb, _ := b.(heldSet)
	if (sa == nil) != (sb == nil) || len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}

// replayHeld walks the lock-relevant operations of block node n in
// source order, updating held in place; onBlock, when non-nil, fires at
// each may-block operation. Defer bodies are skipped (they run at
// function exit) and go statements are skipped entirely (the spawned
// call does not block the spawner, and its locks run concurrently, not
// nested).
func replayHeld(ctx *lockCtx, n ast.Node, held heldSet, onBlock func(desc string, pos token.Pos)) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return
	}
	WalkBlockNode(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if onBlock != nil {
				onBlock("channel send", v.Arrow)
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && onBlock != nil {
				onBlock("channel receive", v.OpPos)
			}
		case *ast.RangeStmt:
			if _, isChan := exprType(ctx.Info, v.X).(*types.Chan); isChan && onBlock != nil {
				onBlock("range over channel", v.For)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) && onBlock != nil {
				onBlock("select without default", v.Select)
			}
		case *ast.CallExpr:
			if key, op := lockCall(ctx, v); op != lockNone {
				if op == lockTake {
					held[key] = true
				} else {
					delete(held, key)
				}
				return true
			}
			if isBlockingStdCall(ctx.Info, v) && onBlock != nil {
				onBlock(blockDesc(ctx.Info, v), v.Pos())
			}
		}
		return true
	})
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

func runLockHeld(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fn := range FuncNodes(f) {
			checkLockHeldFunc(pass, fn)
		}
	}
	return nil
}

// checkLockHeldFunc reports may-block operations reached with a lock
// held on every path.
func checkLockHeldFunc(pass *Pass, fn ast.Node) {
	ctx := &lockCtx{Info: pass.Info, Pkg: pass.Pkg, Path: pass.Path, Enclosing: enclosingName(pass, fn)}
	cfg := BuildCFG(fn)
	res := Forward(cfg, &heldFlow{ctx: ctx})
	reported := map[token.Pos]bool{}
	for _, b := range cfg.Blocks {
		in, _ := res.In[b].(heldSet)
		if in == nil {
			continue // unreachable: don't report from dead code
		}
		held := in.clone()
		for _, n := range b.Nodes {
			replayHeld(ctx, n, held, func(desc string, pos token.Pos) {
				if len(held) == 0 || reported[pos] {
					return
				}
				reported[pos] = true
				pass.Reportf(pos, "%s while %s is held can stall the critical section indefinitely; "+
					"release the lock first or make the operation non-blocking",
					desc, strings.Join(sortedKeys(held), ", "))
			})
		}
	}
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
