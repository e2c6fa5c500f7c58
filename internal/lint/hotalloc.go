package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-iteration heap work inside the loops of the
// designated hot packages — the numerical kernels and I/O paths whose
// throughput the paper's many-task argument depends on. Inside a loop
// body (or a loop's condition/post statement) it reports:
//
//   - make/new builtin calls and slice/map composite literals — a fresh
//     heap object per iteration (value struct literals are excluded:
//     they need not allocate);
//   - the copy idiom `append([]T(nil), xs...)` / `append([]T{}, xs...)`:
//     an append onto an empty base allocates its whole result;
//   - &T{...} pointer literals;
//   - string concatenation (`a + b`, `s += x`) — each produces a new
//     backing array;
//   - function literals capturing enclosing variables — each creation
//     allocates a closure (non-capturing literals compile to static
//     functions and pass);
//   - interprocedurally, calls whose callee's allocates-effect summary
//     bit is set (see summary.go): the allocation happens inside the
//     callee, once per call.
//
// Amortized allocation under a lazy-init guard (`if buf == nil { buf =
// make(...) }`, `if cap(buf) < n`), branches that terminate the loop
// (return/panic — they run at most once), and goroutine/defer spawn
// sites (the spawn is the dominant cost and is governed elsewhere) are
// excluded. `append` growth of a live slice is preallocate's domain
// and is not reported here. Genuinely unavoidable per-iteration
// allocation (e.g. results that must escape to a caller-owned sink) can
// carry an audited //esselint:allow hotalloc directive.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag per-iteration heap allocation in hot-package loops: make/new, slice and map " +
		"composite literals, &T{} literals, capturing closures, string concatenation, and " +
		"calls whose allocates-effect summary is set (interprocedural)",
	Scope: hotPackages,
	Run:   runHotAlloc,
}

// hotPackages scopes the performance analyzers to the packages the
// benchmark suite spends its cycles in.
var hotPackages = underAny("internal/linalg", "internal/ocean", "internal/covstore", "internal/acoustics", "internal/telemetry")

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			reported := map[token.Pos]bool{}
			skip := map[token.Pos]bool{}
			walkPerIteration(pass.Info, fd.Body, func(n ast.Node) {
				checkHotNode(pass, n, reported, skip)
			})
		}
	}
	return nil
}

func checkHotNode(pass *Pass, n ast.Node, reported, skip map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] || skip[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	switch v := n.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				// Claim the nested literal so it is not reported twice.
				skip[lit.Pos()] = true
				report(v.Pos(), "%s allocated per loop iteration; hoist it or reuse a buffer", exprSnippet(v))
			}
		}
	case *ast.CompositeLit:
		switch exprType(pass.Info, v).(type) {
		case *types.Slice, *types.Map:
			report(v.Pos(), "%s allocated per loop iteration; hoist it or reuse a buffer", exprSnippet(v))
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin {
				switch {
				case id.Name == "make" || id.Name == "new":
					report(v.Pos(), "%s allocated per loop iteration; hoist it or reuse a buffer", exprSnippet(v))
				case id.Name == "append" && len(v.Args) >= 2 && isEmptySliceExpr(pass.Info, v.Args[0]):
					// Claim an empty literal base so it is not reported twice.
					skip[ast.Unparen(v.Args[0]).Pos()] = true
					report(v.Pos(), "%s copies into a fresh backing array per loop iteration; "+
						"hoist a buffer and append onto buf[:0]", exprSnippet(v))
				}
				return
			}
		}
		if pass.Prog != nil {
			if callee := StaticCallee(pass.Info, v); callee != nil {
				if pass.Prog.Effects[callee.FullName()]&EffAllocates != 0 {
					report(v.Pos(), "call to %s allocates per loop iteration (allocates-effect summary); "+
						"hoist the call or pass it a reusable buffer", callee.Name())
				}
			}
		}
	case *ast.BinaryExpr:
		if v.Op == token.ADD && isStringExpr(pass.Info, v) && !isConstVal(pass.Info, v) {
			// Only the topmost concatenation of a chain reports. Report
			// before marking the operands: a left-nested chain shares
			// its Pos with its left operand, so the skip must not beat
			// the report to it.
			report(v.Pos(), "string concatenation per loop iteration allocates a new backing array; "+
				"use a strings.Builder or a preallocated byte buffer")
			for _, sub := range []ast.Expr{v.X, v.Y} {
				if b, ok := ast.Unparen(sub).(*ast.BinaryExpr); ok {
					skip[b.Pos()] = true
				}
			}
		}
	case *ast.AssignStmt:
		if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isStringExpr(pass.Info, v.Lhs[0]) {
			report(v.TokPos, "string concatenation per loop iteration allocates a new backing array; "+
				"use a strings.Builder or a preallocated byte buffer")
		}
	case *ast.FuncLit:
		if capturesLocals(pass.Info, v) {
			report(v.Pos(), "closure capturing enclosing variables allocated per loop iteration; "+
				"hoist the literal and pass per-iteration state as arguments")
		}
	}
}

// isEmptySliceExpr recognizes the base of the copy idiom
// `append([]T(nil), xs...)` / `append([]T{}, xs...)`: a nil conversion
// to a slice type or an empty slice literal, either of which makes the
// append allocate its whole result.
func isEmptySliceExpr(info *types.Info, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, slice := exprType(info, v).(*types.Slice)
		return slice && len(v.Elts) == 0
	case *ast.CallExpr:
		if tv, ok := info.Types[v.Fun]; !ok || !tv.IsType() || len(v.Args) != 1 {
			return false
		}
		_, slice := exprType(info, v).(*types.Slice)
		id, isIdent := ast.Unparen(v.Args[0]).(*ast.Ident)
		return slice && isIdent && id.Name == "nil"
	}
	return false
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	b, ok := exprType(info, e).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstVal(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// walkPerIteration calls visit for every node of body that executes on
// each iteration of at least one enclosing loop. It is the shared
// traversal of the performance analyzers and encodes their common
// exclusions:
//
//   - a for loop's condition, post statement and body are
//     per-iteration; its init statement is not;
//   - a range statement's operand evaluates once; its body is
//     per-iteration;
//   - an if body guarded by a lazy-init condition (nil/len/cap check)
//     or ending in return/panic (it runs at most once per loop) is
//     lifted out of per-iteration reasoning;
//   - an immediately invoked function literal's body executes inline;
//   - go/defer call sites evaluate their arguments per iteration, but
//     the spawned literal's creation and body are excluded (spawn cost
//     dominates and is governed by the concurrency analyzers);
//   - any other function literal is visited as a creation site, and
//     its body restarts as a fresh non-loop context (when and where it
//     runs is unknown).
func walkPerIteration(info *types.Info, body *ast.BlockStmt, visit func(ast.Node)) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return true
			}
			switch v := m.(type) {
			case *ast.ForStmt:
				walk(v.Init, inLoop)
				walk(v.Cond, true)
				walk(v.Post, true)
				walk(v.Body, true)
				return false
			case *ast.RangeStmt:
				walk(v.X, inLoop)
				walk(v.Body, true)
				return false
			case *ast.IfStmt:
				walk(v.Init, inLoop)
				walk(v.Cond, inLoop)
				bodyLoop := inLoop
				if isLazyInitGuard(info, v.Cond) || terminatesLoop(v.Body) {
					bodyLoop = false
				}
				walk(v.Body, bodyLoop)
				walk(v.Else, inLoop)
				return false
			case *ast.GoStmt:
				walkSpawnCall(v.Call, inLoop, walk)
				return false
			case *ast.DeferStmt:
				walkSpawnCall(v.Call, inLoop, walk)
				return false
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
					for _, a := range v.Args {
						walk(a, inLoop)
					}
					walk(lit.Body, inLoop)
					return false
				}
				if inLoop {
					visit(v)
				}
				return true
			case *ast.FuncLit:
				if inLoop {
					visit(v)
				}
				walk(v.Body, false)
				return false
			}
			if inLoop {
				visit(m)
			}
			return true
		})
	}
	walk(body, false)
}

// walkSpawnCall handles a go/defer call: arguments evaluate at the
// spawn site, the literal (if any) is the spawn's own cost.
func walkSpawnCall(call *ast.CallExpr, inLoop bool, walk func(ast.Node, bool)) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		walk(lit.Body, false)
	} else {
		walk(call.Fun, inLoop)
	}
	for _, a := range call.Args {
		walk(a, inLoop)
	}
}

// isLazyInitGuard recognizes the amortized-allocation idiom: a
// condition of the shape `x == nil`, `len(x) < n`, or `cap(x) < n`
// whose body (re)allocates only when the cached buffer is missing or
// too small. An || chain with a lazy guard anywhere in it also
// qualifies — `buf == nil || buf.Rows != n` is the
// reallocate-on-shape-change variant, amortized whenever the shape is
// stable.
func isLazyInitGuard(info *types.Info, cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if bin.Op == token.LOR {
		return isLazyInitGuard(info, bin.X) || isLazyInitGuard(info, bin.Y)
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isLenCap := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || (id.Name != "len" && id.Name != "cap") {
			return false
		}
		_, builtin := info.Uses[id].(*types.Builtin)
		return builtin
	}
	switch bin.Op {
	case token.EQL:
		return isNil(bin.X) || isNil(bin.Y) || isLenCap(bin.X) || isLenCap(bin.Y)
	case token.NEQ:
		return isLenCap(bin.X) || isLenCap(bin.Y)
	case token.LSS, token.LEQ:
		return isLenCap(bin.X)
	case token.GTR, token.GEQ:
		return isLenCap(bin.Y)
	}
	return false
}

// terminatesLoop reports whether the block's last statement leaves the
// enclosing loop for good: a return or a panic. (break is deliberately
// not included: an unlabeled break inside a switch stays in the loop.)
func terminatesLoop(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// capturesLocals reports whether lit references a variable declared in
// an enclosing function — the condition under which creating the
// literal allocates a closure. Package-level variables and the
// literal's own parameters and locals do not force an allocation.
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package scope
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

// allocatesDirectly reports whether body contains a direct
// heap-allocation source outside a lazy-init guard or a terminating
// branch — the syntactic side of the EffAllocates summary bit.
// Goroutine and defer literals are excluded (their cost is the
// spawn's, see EffSpawns); every other nested literal's body runs
// under this function's dynamic extent and counts, as does the
// creation of a capturing closure itself.
func allocatesDirectly(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || found {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || found {
				return false
			}
			switch v := m.(type) {
			case *ast.IfStmt:
				walk(v.Init)
				walk(v.Cond)
				if !isLazyInitGuard(info, v.Cond) && !terminatesLoop(v.Body) {
					walk(v.Body)
				}
				walk(v.Else)
				return false
			case *ast.GoStmt:
				for _, a := range v.Call.Args {
					walk(a)
				}
				return false
			case *ast.DeferStmt:
				for _, a := range v.Call.Args {
					walk(a)
				}
				return false
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
					for _, a := range v.Args {
						walk(a)
					}
					walk(lit.Body)
					return false
				}
			case *ast.FuncLit:
				if capturesLocals(info, v) {
					found = true
					return false
				}
				walk(v.Body)
				return false
			}
			if allocSource(info, m) {
				found = true
				return false
			}
			return true
		})
	}
	walk(body)
	return found
}

// unguardedCallees collects the keys of callees fn invokes outside the
// amortized regions allocatesDirectly skips — lazy-init guard bodies,
// terminating branches, and go/defer call expressions. The effect
// fixpoint propagates EffAllocates to fn only across these edges
// (every other effect bit crosses every edge): a function whose only
// call to an allocator sits under `if buf == nil` pays that cost once,
// not per call.
func unguardedCallees(fn *FuncInfo) map[string]bool {
	out := map[string]bool{}
	if fn.Decl.Body == nil {
		return out
	}
	info := fn.Pkg.Info
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			switch v := m.(type) {
			case *ast.IfStmt:
				walk(v.Init)
				walk(v.Cond)
				if !isLazyInitGuard(info, v.Cond) && !terminatesLoop(v.Body) {
					walk(v.Body)
				}
				walk(v.Else)
				return false
			case *ast.GoStmt:
				for _, a := range v.Call.Args {
					walk(a)
				}
				return false
			case *ast.DeferStmt:
				for _, a := range v.Call.Args {
					walk(a)
				}
				return false
			case *ast.CallExpr:
				if callee := StaticCallee(info, v); callee != nil {
					out[callee.FullName()] = true
				}
			}
			return true
		})
	}
	walk(fn.Decl.Body)
	return out
}

// allocSource reports whether n is, by itself, a direct heap-allocation
// source: make/new, a slice or map composite literal, an &T{} literal,
// or non-constant string concatenation.
func allocSource(info *types.Info, n ast.Node) bool {
	switch v := n.(type) {
	case *ast.CallExpr:
		id, ok := ast.Unparen(v.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := info.Uses[id].(*types.Builtin)
		return builtin && (id.Name == "make" || id.Name == "new")
	case *ast.CompositeLit:
		switch exprType(info, v).(type) {
		case *types.Slice, *types.Map:
			return true
		}
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, ok := ast.Unparen(v.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.BinaryExpr:
		return v.Op == token.ADD && isStringExpr(info, v) && !isConstVal(info, v)
	case *ast.AssignStmt:
		return v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isStringExpr(info, v.Lhs[0])
	}
	return false
}
