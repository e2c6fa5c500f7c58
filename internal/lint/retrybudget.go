package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetryBudget (DESIGN §7) flags retry and poll loops that can
// spin forever: a for-loop that talks to the network (directly or
// through a callee whose summary carries EffNetwork) or busy-polls with
// time.Sleep must carry an attempt bound — an integer comparison in the
// loop condition, or an integer-compared early exit in the body — or a
// ctx.Done()/ctx.Err() escape hatch. Network loops must additionally
// back off between attempts (Sleep, timer, Ticker receive); a refusing
// peer hammered in a tight loop is a self-inflicted outage. This is the
// busy-wait lease-poll shape a dispatcher/worker split grows first.
//
// Deliberate narrowing, stated plainly: loops that block only on
// channel receives or selects are idle, not spinning, and channel
// lifetime is ctxflow's domain — they are not flagged here even though
// they carry the may-block effect. Range loops are likewise excluded
// (range-over-channel termination is ctxflow's). The attempt bound is
// syntactic: a dynamically computed budget (deadline arithmetic, a
// decrementing float) is invisible and reads as unbounded.
var RetryBudget = &Analyzer{
	Name:  "retrybudget",
	Doc:   "require retry/poll loops to carry an attempt bound or ctx exit, and network loops a backoff",
	Scope: underInternalOrCmd,
	Run:   runRetryBudget,
}

func runRetryBudget(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, fn := range funcNodesWithin(fd) {
				checkRetryLoops(pass, fn)
			}
		}
	}
	return nil
}

func checkRetryLoops(pass *Pass, fn ast.Node) {
	body := funcBody(fn)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are checked as their own nodes
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		rb := loopShape(pass, loop)
		if !rb.network && !rb.sleeps {
			return true
		}
		if !rb.bounded && !rb.ctxExit {
			what := "polls"
			if rb.network {
				what = "retries a network operation"
			}
			pass.Reportf(loop.For, "this loop %s with no attempt bound and no ctx.Done/ctx.Err exit; "+
				"cap the attempts or thread a context through so a dead peer cannot spin it forever", what)
		}
		if rb.network && !rb.backoff {
			pass.Reportf(loop.For, "network loop retries without backoff; "+
				"sleep or wait on a timer/ticker between attempts so a refusing peer is not hammered")
		}
		return true
	})
}

// retryShape is what one loop provably carries.
type retryShape struct {
	network bool // body performs a network operation
	sleeps  bool // body busy-polls via time.Sleep
	bounded bool // integer-compared loop condition or early exit
	ctxExit bool // ctx.Done()/ctx.Err() consulted inside the loop
	backoff bool // Sleep, time.After, or a timer/ticker .C receive
}

func loopShape(pass *Pass, loop *ast.ForStmt) retryShape {
	info := pass.Info
	var rb retryShape

	if loop.Cond != nil && containsIntCompare(info, loop.Cond) {
		rb.bounded = true
	}

	inLoop := func(walk func(n ast.Node) bool) {
		if loop.Cond != nil {
			ast.Inspect(loop.Cond, walk)
		}
		if loop.Post != nil {
			ast.Inspect(loop.Post, walk)
		}
		ast.Inspect(loop.Body, walk)
	}
	inLoop(func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A literal defined in the loop runs on its own schedule;
			// its calls are not this loop's per-iteration work.
			return false
		case *ast.CallExpr:
			if isNetworkCall(info, v) {
				rb.network = true
			}
			if isCtxCall(info, v) {
				rb.ctxExit = true // interface method: no static callee
			}
			if callee := StaticCallee(info, v); callee != nil {
				if isTimeSleep(callee) {
					rb.sleeps = true
					rb.backoff = true
				}
				if callee.FullName() == "time.After" {
					rb.backoff = true
				}
				if pass.Prog != nil {
					if eff, ok := pass.Prog.Effects[callee.FullName()]; ok && eff&EffNetwork != 0 {
						rb.network = true
					}
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				if sel, ok := ast.Unparen(v.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
					rb.backoff = true // timer/ticker channel receive
				}
			}
		case *ast.IfStmt:
			if containsIntCompare(info, v.Cond) && containsEarlyExit(v.Body) {
				rb.bounded = true
			}
		}
		return true
	})
	return rb
}

func isTimeSleep(callee *types.Func) bool {
	return callee.FullName() == "time.Sleep"
}

// isCtxCall reports whether call is ctx.Done() or ctx.Err() on a
// context.Context-typed receiver.
func isCtxCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return tv.Type.String() == "context.Context"
}

// containsIntCompare reports whether e contains an ordered comparison
// between integer-typed operands — the syntactic shape of an attempt
// bound.
func containsIntCompare(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		if isIntegerExpr(info, bin.X) && isIntegerExpr(info, bin.Y) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// containsEarlyExit reports whether the block leaves the loop: a break
// (any label) or a return.
func containsEarlyExit(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if v.Tok == token.BREAK {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}
