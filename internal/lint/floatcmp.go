package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between non-constant floating-point
// expressions. Exact float equality is almost never what a numerical
// code means: two mathematically identical reductions differ in their
// last bits depending on association order, so `a == b` silently turns
// into "a and b were computed by the same instruction sequence". The
// required spelling is a tolerance test, math.Abs(a-b) <= tol.
//
// Comparisons against constants are allowed — `x == 0` and `x != 1`
// are legitimate sentinel and guard tests — as is comparing an
// expression to itself, the idiomatic NaN probe `x != x`.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "flag ==/!= between non-constant float expressions; exact equality depends on " +
		"instruction ordering — use math.Abs(a-b) <= tol",
	Scope: underInternalOrCmd,
	Run:   runFloatCmp,
}

func runFloatCmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !isFloatOperand(pass, cmp.X) || !isFloatOperand(pass, cmp.Y) {
				return true
			}
			if isConstExpr(pass, cmp.X) || isConstExpr(pass, cmp.Y) {
				return true
			}
			if types.ExprString(ast.Unparen(cmp.X)) == types.ExprString(ast.Unparen(cmp.Y)) {
				return true // x != x: the NaN self-test
			}
			pass.Reportf(cmp.OpPos,
				"exact float comparison %s %s %s; use math.Abs(a-b) <= tol (or //esselint:allow floatcmp <reason> if bit-exactness is the contract)",
				exprSnippet(cmp.X), cmp.Op, exprSnippet(cmp.Y))
			return true
		})
	}
	return nil
}

func isFloatOperand(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// exprSnippet renders e compactly for diagnostics.
func exprSnippet(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return fmt.Sprintf("%q", s)
}
