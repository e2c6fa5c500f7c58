package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file computes the concurrency-safety summaries sharedguard and
// ctxflow consume, extending the interprocedural layer of summary.go:
//
//   - CtxParam: which functions receive a context.Context, and at which
//     parameter index — the propagation table ctxflow checks dropped
//     contexts against;
//   - EntryHeld: for every function, the locks held on every observed
//     static path into it, computed as a descending fixpoint over the
//     call graph. This is what lets sharedguard see that an xxxLocked
//     helper's field accesses are in fact guarded by every caller;
//   - spawnReachable: the functions reachable from a goroutine, used by
//     sharedguard as concurrency evidence for package-level state.
//
// Soundness gaps, shared with the rest of the interprocedural layer:
// calls through function values and interface methods contribute no
// entry constraints (any exported, go-spawned, or value-referenced
// function is therefore treated as enterable with no locks held);
// defer bodies and goroutine bodies are not call sites.

// computeCtxParams records, for every function in the graph, the index
// of its first context.Context parameter (receivers excluded).
func (p *Program) computeCtxParams() {
	p.CtxParam = map[string]int{}
	for _, key := range p.Graph.Keys {
		fn := p.Graph.Funcs[key]
		sig, ok := fn.Obj.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isCtxType(sig.Params().At(i).Type()) {
				p.CtxParam[key] = i
				break
			}
		}
	}
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// entrySite is one observed static call: callee entered from caller
// with held locks acquired on every path to the site.
type entrySite struct {
	caller, callee string
	held           heldSet
}

// computeEntryHeld solves, over the whole call graph,
//
//	entry(f) = ∩ over sites (f called from g with H held) of H ∪ entry(g)
//
// with roots — exported functions, go-spawned functions, functions
// referenced as values, main and init — pinned to the empty set.
// Iteration descends from the optimistic Top (never observed);
// functions still at Top afterwards are unreachable through static
// calls and resolve to the empty set.
func (p *Program) computeEntryHeld() {
	var sites []entrySite
	roots := map[string]bool{}

	for _, key := range p.Graph.Keys {
		fn := p.Graph.Funcs[key]
		if fn.Obj.Exported() || fn.Obj.Name() == "main" || fn.Obj.Name() == "init" {
			roots[key] = true
		}
		if fn.Decl.Body == nil {
			continue
		}
		info := fn.Pkg.Info

		// A function used as a value (stored, passed, registered as a
		// handler) or spawned can be entered from anywhere: root it.
		calleeIdents := map[token.Pos]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				switch f := ast.Unparen(v.Fun).(type) {
				case *ast.Ident:
					calleeIdents[f.Pos()] = true
				case *ast.SelectorExpr:
					calleeIdents[f.Sel.Pos()] = true
				}
			case *ast.GoStmt:
				if callee := StaticCallee(info, v.Call); callee != nil {
					roots[callee.FullName()] = true
				}
			}
			return true
		})
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || calleeIdents[id.Pos()] {
				return true
			}
			if obj, ok := info.Uses[id].(*types.Func); ok {
				if _, inSet := p.Graph.Funcs[obj.FullName()]; inSet {
					roots[obj.FullName()] = true
				}
			}
			return true
		})

		// Record held-at-site for every statically resolved call.
		// replayHeld skips defer bodies and go statements, so those do
		// not constrain the callee's entry set.
		ctx := &lockCtx{Info: info, Pkg: fn.Pkg.Pkg, Path: fn.Pkg.Path, Enclosing: key}
		cfg := BuildCFG(fn.Decl)
		res := Forward(cfg, &heldFlow{ctx: ctx})
		for _, b := range cfg.Blocks {
			in, _ := res.In[b].(heldSet)
			if in == nil {
				continue
			}
			held := in.clone()
			for _, n := range b.Nodes {
				replayHeld(ctx, n, held, nil,
					func(callee *types.Func, pos token.Pos) {
						if _, inSet := p.Graph.Funcs[callee.FullName()]; !inSet {
							return
						}
						sites = append(sites, entrySite{caller: key, callee: callee.FullName(), held: held.clone()})
					})
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].callee != sites[j].callee {
			return sites[i].callee < sites[j].callee
		}
		return sites[i].caller < sites[j].caller
	})

	// entry: absent = Top (optimistic). Roots start at the empty set.
	entry := map[string]heldSet{}
	for key := range roots {
		entry[key] = heldSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			callerEntry, known := entry[s.caller]
			if !known {
				continue // caller itself unreached: no constraint yet
			}
			eff := s.held.clone()
			for k := range callerEntry {
				eff[k] = true
			}
			cur, known := entry[s.callee]
			if !known {
				entry[s.callee] = eff
				changed = true
				continue
			}
			meet := heldSet{}
			for k := range cur {
				if eff[k] {
					meet[k] = true
				}
			}
			if len(meet) != len(cur) {
				entry[s.callee] = meet
				changed = true
			}
		}
	}

	p.EntryHeld = map[string][]string{}
	for key, h := range entry {
		if len(h) > 0 {
			p.EntryHeld[key] = sortedKeys(h)
		}
	}
}

// spawnReachable lazily computes the set of functions reachable from a
// goroutine: named functions spawned by a go statement, named functions
// called inside a go statement's function literal, and everything they
// transitively call.
func (p *Program) spawnReachable() map[string]bool {
	p.spawnOnce.Do(func() {
		roots := map[string]bool{}
		note := func(info *types.Info, call *ast.CallExpr) {
			if callee := StaticCallee(info, call); callee != nil {
				if _, inSet := p.Graph.Funcs[callee.FullName()]; inSet {
					roots[callee.FullName()] = true
				}
			}
		}
		for _, key := range p.Graph.Keys {
			fn := p.Graph.Funcs[key]
			if fn.Decl.Body == nil {
				continue
			}
			info := fn.Pkg.Info
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				note(info, g.Call)
				if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							note(info, call)
						}
						return true
					})
				}
				return true
			})
		}
		reach := map[string]bool{}
		queue := sortedKeys(roots)
		for _, k := range queue {
			reach[k] = true
		}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			for _, callee := range p.Graph.Funcs[k].Callees {
				if !reach[callee] {
					reach[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		p.spawnReach = reach
	})
	return p.spawnReach
}

// isSyncPrimitiveType reports whether t is itself a synchronization
// primitive (a sync.*, sync/atomic.* or context type) or a channel —
// accesses to these are safe by construction or another analyzer's
// business.
func isSyncPrimitiveType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic", "context":
		return true
	}
	return false
}

// isTypedAtomic reports whether t is one of sync/atomic's typed
// wrappers (atomic.Uint64, atomic.Int64, atomic.Bool, ...).
func isTypedAtomic(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}

// walkAccesses visits every variable read and write a single CFG block
// node performs itself, pruning subtrees that execute elsewhere —
// nested function literals (their own analysis segment), range bodies
// and select clauses (their own basic blocks). Classification:
// assignment targets, IncDec operands and address-taking count as
// writes; element writes through an index demote to reads of the base
// (the per-slot ownership idiom — each goroutine writing its own slice
// slot — is exempt by design) except for maps, whose concurrent writes
// corrupt the table.
func walkAccesses(info *types.Info, node ast.Node, visit func(expr ast.Expr, write bool)) {
	var walk func(n ast.Node, write bool)
	walkExpr := func(e ast.Expr, write bool) {
		if e != nil {
			walk(e, write)
		}
	}
	walk = func(n ast.Node, write bool) {
		switch v := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // separate segment
		case *ast.SelectStmt:
			return // comms and bodies live in their own blocks
		case *ast.RangeStmt:
			// Only the header executes here; the body has its own blocks.
			walkExpr(v.Key, true)
			walkExpr(v.Value, true)
			walkExpr(v.X, false)
			return
		case *ast.GoStmt:
			// Arguments are evaluated in the spawner; a literal callee
			// body is the spawned segment.
			if _, lit := ast.Unparen(v.Call.Fun).(*ast.FuncLit); !lit {
				walkExpr(v.Call.Fun, false)
			}
			for _, a := range v.Call.Args {
				walkExpr(a, false)
			}
			return
		case *ast.DeferStmt:
			if _, lit := ast.Unparen(v.Call.Fun).(*ast.FuncLit); !lit {
				walkExpr(v.Call.Fun, false)
			}
			for _, a := range v.Call.Args {
				walkExpr(a, false)
			}
			return
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				walkExpr(lhs, true)
			}
			for _, rhs := range v.Rhs {
				walkExpr(rhs, false)
			}
			return
		case *ast.IncDecStmt:
			walkExpr(v.X, true)
			return
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				walkExpr(v.X, true)
				return
			}
		case *ast.IndexExpr:
			baseWrite := false
			if write {
				_, baseWrite = exprType(info, v.X).(*types.Map)
			}
			walkExpr(v.X, baseWrite)
			walkExpr(v.Index, false)
			return
		case *ast.SliceExpr:
			walkExpr(v.X, false)
			walkExpr(v.Low, false)
			walkExpr(v.High, false)
			walkExpr(v.Max, false)
			return
		case *ast.StarExpr:
			walkExpr(v.X, false)
			return
		case *ast.SelectorExpr:
			visit(v, write)
			walkExpr(v.X, false)
			return
		case *ast.Ident:
			visit(v, write)
			return
		case *ast.KeyValueExpr:
			// Struct-literal keys are field names, not accesses.
			walkExpr(v.Value, false)
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case *ast.FuncLit, *ast.SelectStmt, *ast.RangeStmt, *ast.GoStmt,
				*ast.DeferStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.UnaryExpr,
				*ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr,
				*ast.SelectorExpr, *ast.Ident, *ast.KeyValueExpr:
				walk(m, write)
				return false
			}
			return true
		})
	}
	walk(node, false)
}

// forEachHeldAccess runs the held-lock dataflow over one function node
// (declaration or literal) and fires visit for every variable access
// with the lock set held at that point; entry locks are added
// throughout (a function releasing its caller's lock mid-body is not
// modeled). Lock operations within a single block node take effect
// after that node's accesses are visited — statement granularity, which
// is exact for the mu.Lock()-on-its-own-line idiom.
func forEachHeldAccess(ctx *lockCtx, node ast.Node, entry []string,
	visit func(e ast.Expr, write bool, held heldSet)) {

	cfg := BuildCFG(node)
	res := Forward(cfg, &heldFlow{ctx: ctx})
	for _, b := range cfg.Blocks {
		in, _ := res.In[b].(heldSet)
		if in == nil {
			continue // unreachable
		}
		held := in.clone()
		for _, k := range entry {
			held[k] = true
		}
		for _, n := range b.Nodes {
			walkAccesses(ctx.Info, n, func(e ast.Expr, write bool) {
				visit(e, write, held)
			})
			replayHeld(ctx, n, held, nil, nil)
		}
	}
}
