package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResLeak (DESIGN §7) proves that acquired resources — files,
// tickers, timers, sockets — are released on every path out of the
// acquiring function, using the shared obligation solver (obligation.go)
// with httpguard's defer and ownership-transfer semantics: a bare
// mention of the handle (return, struct field, call argument) hands the
// obligation onward, capture by a function literal does too, and the
// error-paired acquisitions die on the err != nil arm where nothing was
// acquired. Method calls on the handle (Write, Read, Reset) are plain
// uses, not transfers — only the whole value escaping blesses a path.
//
// The transfer-on-argument rule is sharpened interprocedurally: passing
// the handle to a function in the analyzed set transfers the obligation
// only if that function (transitively) releases something it was given
// — the EffReleases effect bit from the call-graph summaries. A callee
// that provably never calls Close/Stop on a parameter cannot be the
// discharge, so the obligation stays with the caller and a leak there
// is still a leak. Unknown and dynamic callees transfer, erring quiet;
// static callees outside the set (stdlib) do not, since fmt.Fprintf or
// io.Copy reading from a file does not close it.
//
// Soundness gaps: inherited from the solver (syntactic transfer,
// pre-acquisition aliases, interface escapes), plus EffReleases being
// per-function not per-parameter — a callee that closes one argument
// blesses every argument it is passed.
var ResLeak = &Analyzer{
	Name:  "resleak",
	Doc:   "prove files, tickers, timers and sockets are released on every path",
	Scope: underInternalOrCmd,
	Run:   runResLeak,
}

// acquireRule describes one acquisition function: the method that
// releases its result and whether the result is (value, error) paired.
type acquireRule struct {
	release   string
	errPaired bool
}

var acquireFuncs = map[string]acquireRule{
	"os.Create":       {"Close", true},
	"os.Open":         {"Close", true},
	"os.OpenFile":     {"Close", true},
	"os.CreateTemp":   {"Close", true},
	"net.Dial":        {"Close", true},
	"net.DialTimeout": {"Close", true},
	"net.Listen":      {"Close", true},
	"time.NewTicker":  {"Stop", false},
	"time.NewTimer":   {"Stop", false},
}

// resleakSpec adapts the acquire/release discipline to the shared
// obligation solver.
func resleakSpec(pass *Pass) *ObSpec {
	info := pass.Info
	spec := &ObSpec{Info: info, EdgeKills: true}
	spec.Gen = func(as *ast.AssignStmt, call *ast.CallExpr) []ObGen {
		callee := StaticCallee(info, call)
		if callee == nil {
			return nil
		}
		rule, ok := acquireFuncs[callee.FullName()]
		if !ok {
			return nil
		}
		g := ObGen{Pos: call.Pos(), Release: rule.release}
		if rule.errPaired {
			if len(as.Lhs) != 2 {
				return nil
			}
			g.Var = lhsVar(info, as.Lhs[0])
			g.ErrVar = lhsVar(info, as.Lhs[1])
		} else {
			if len(as.Lhs) != 1 {
				return nil
			}
			g.Var = lhsVar(info, as.Lhs[0])
		}
		if g.Var == nil {
			return nil
		}
		return []ObGen{g}
	}
	spec.Discharge = func(call *ast.CallExpr, st ObFact) (*types.Var, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		v := obTrackedVar(info, st, sel.X)
		if v == nil || sel.Sel.Name != st[v].Release {
			return nil, false
		}
		return v, false // released: the obligation dies
	}
	// A selector on the handle (f.Write, tk.C) is a use, not an escape;
	// stop the descent so the root is not treated as a bare mention.
	spec.OnSelector = func(sel *ast.SelectorExpr, v *types.Var, st ObFact, rep *ObReporter) {}
	spec.TransferArg = func(call *ast.CallExpr, v *types.Var) bool {
		callee := StaticCallee(info, call)
		if callee == nil {
			return true // dynamic callee: assume it takes ownership
		}
		if pass.Prog != nil {
			if eff, ok := pass.Prog.Effects[callee.FullName()]; ok {
				return eff&EffReleases != 0
			}
		}
		// Static callee outside the analyzed set (stdlib): reading from
		// or writing through the handle does not release it.
		return false
	}
	return spec
}

// lhsVar resolves an assignment target to its variable, nil for blanks
// and non-identifiers.
func lhsVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return identVar(info, id)
}

func runResLeak(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, fn := range funcNodesWithin(fd) {
				checkResPaths(pass, fn)
			}
		}
	}
	return nil
}

func checkResPaths(pass *Pass, fn ast.Node) {
	CheckObligations(pass, fn, resleakSpec(pass), &ObReporter{
		Leak: func(inf ObInfo) {
			pass.Reportf(inf.Pos, "resource acquired by this call may not be released on every path out of the function; "+
				"defer its %s right after the error check, or hand it onward explicitly", inf.Release)
		},
		Overwrite: func(genPos token.Pos, prev ObInfo) {
			pass.Reportf(genPos, "this assignment overwrites a handle whose %s may still be pending (from the call at %s); "+
				"release the previous handle before reacquiring", prev.Release, pass.Fset.Position(prev.Pos))
		},
	})
}
