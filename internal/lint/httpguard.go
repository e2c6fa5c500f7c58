package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HTTPGuard (DESIGN §7) enforces the HTTP hygiene a retrying
// task-lease protocol lives or dies by:
//
//   - every *http.Response obtained in a function must have its Body
//     closed on every path out of the function — a CFG may-analysis on
//     the shared forward solver, defer-aware and error-branch aware
//     (the `if err != nil` arm kills the fact: there is no body to
//     close), with returning/storing/passing the whole response (or
//     capturing it in a closure) counting as handing ownership onward;
//     overwriting a still-live response variable (the retry-loop leak)
//     is flagged at the overwrite;
//   - the response body must not be read or decoded before the status
//     code is checked on that path: an error page decoded as payload
//     is the classic silent corruption of a scrape loop (Close and the
//     status-mention itself are exempt; the check composes through the
//     dataflow meet, so a check on one branch does not bless the
//     other);
//   - http.Client composite literals must set Timeout (or the
//     enclosing function must build its requests with
//     http.NewRequestWithContext, which carries cancellation
//     instead); referencing http.DefaultClient is flagged outright —
//     storing the shared zero-timeout client in a long-lived struct is
//     exactly how one hung peer blocks a fleet — and the package-level
//     http.Get/Post/PostForm/Head sugar (which uses it) is flagged
//     inside loops and inside ctx-taking functions;
//   - http.Server composite literals must set ReadHeaderTimeout (the
//     slowloris guard), and the ListenAndServe package functions are
//     flagged outright: they construct an unbounded Server with no
//     Shutdown handle.
//
// Soundness gaps, stated plainly: responses reaching a function as
// parameters or through struct fields are the caller's/owner's to
// close (no interprocedural ownership transfer is tracked); a client
// stored in a struct and used elsewhere is checked only at its
// literal; the status-before-read check keys on syntactic mention of
// StatusCode/Status, not on what the comparison does with it.
var HTTPGuard = &Analyzer{
	Name:  "httpguard",
	Doc:   "prove http.Response bodies closed on all paths, status checked before reads, clients carry timeouts or contexts, servers bound header reads",
	Scope: underInternalOrCmd,
	Run:   runHTTPGuard,
}

func runHTTPGuard(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, fn := range funcNodesWithin(fd) {
				checkRespPaths(pass, fn)
			}
			checkClientServerLiterals(pass, fd)
		}
	}
	return nil
}

// --- response-body obligations ---------------------------------------------

// respSpec adapts the response-body discipline to the shared
// obligation solver (obligation.go). Gen: an assignment whose RHS call
// returns a *http.Response, paired with the error assigned alongside
// it. Discharge: resp.Body.Close() — marked Done but kept live, so a
// read after `defer resp.Body.Close()` still needs the status check.
// Selectors on a tracked response feed the status-before-read check:
// StatusCode/Status mentions set the Aux bit, a Body read without it
// fires the early-read finding. Bare mentions transfer ownership, and
// the error/nil edge kills apply.
func respSpec(info *types.Info) *ObSpec {
	return &ObSpec{
		Info: info,
		Gen: func(as *ast.AssignStmt, call *ast.CallExpr) []ObGen {
			g := ObGen{Pos: call.Pos()}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v := identVar(info, id)
				if v == nil {
					continue
				}
				if isHTTPRespPtr(v.Type()) {
					g.Var = v
				} else if i > 0 && types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
					g.ErrVar = v
				}
			}
			if g.Var == nil {
				return nil
			}
			return []ObGen{g}
		},
		Discharge: func(call *ast.CallExpr, st ObFact) (*types.Var, bool) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Close" {
				return nil, false
			}
			bodySel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok || bodySel.Sel.Name != "Body" {
				return nil, false
			}
			return obTrackedVar(info, st, bodySel.X), true
		},
		OnSelector: func(sel *ast.SelectorExpr, v *types.Var, st ObFact, rep *ObReporter) {
			switch sel.Sel.Name {
			case "StatusCode", "Status":
				inf := st[v]
				inf.Aux = true
				st[v] = inf
			case "Body":
				if inf := st[v]; !inf.Aux && rep != nil && rep.Custom != nil {
					rep.Custom(sel.Pos(), inf)
				}
			}
		},
		EdgeKills: true,
	}
}

// isHTTPRespPtr reports whether t is *net/http.Response.
func isHTTPRespPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

// checkRespPaths runs the obligation solver over fn and reports bodies
// not closed on some path, reads before status checks, and live-fact
// overwrites.
func checkRespPaths(pass *Pass, fn ast.Node) {
	CheckObligations(pass, fn, respSpec(pass.Info), &ObReporter{
		Leak: func(inf ObInfo) {
			pass.Reportf(inf.Pos, "response body from this call may not be closed on every path out of the function; "+
				"defer resp.Body.Close() after the error check, or hand the response onward explicitly")
		},
		Overwrite: func(genPos token.Pos, prev ObInfo) {
			pass.Reportf(genPos, "this assignment overwrites a response whose body may still be open (from the call at %s); "+
				"close the previous body before retrying", pass.Fset.Position(prev.Pos))
		},
		Custom: func(pos token.Pos, inf ObInfo) {
			pass.Reportf(pos, "response body is read before the status code is checked on this path; "+
				"an error page decoded as payload corrupts silently — check resp.StatusCode first")
		},
	})
}

// --- client and server discipline ------------------------------------------

// checkClientServerLiterals walks one declaration for http.Client and
// http.Server composite literals, http.DefaultClient references, and
// the package-level request/serve sugar.
func checkClientServerLiterals(pass *Pass, fd *ast.FuncDecl) {
	hasCtxReq := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := StaticCallee(pass.Info, call); obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "net/http" && obj.Name() == "NewRequestWithContext" {
				hasCtxReq = true
			}
		}
		return true
	})
	ctxTaking := hasCtxParam(pass.Info, fd.Type)
	if !ctxTaking && pass.Prog != nil {
		if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			_, ctxTaking = pass.Prog.CtxParam[obj.FullName()]
		}
	}

	var loops [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, [2]token.Pos{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loops {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			named := litNamed(pass.Info, v)
			if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "net/http" {
				return true
			}
			switch named.Obj().Name() {
			case "Client":
				if !litSetsField(v, "Timeout") && !hasCtxReq {
					pass.Reportf(v.Pos(), "http.Client literal sets no Timeout and the function builds no request with NewRequestWithContext; "+
						"one hung peer blocks this client forever — set Timeout or carry a context")
				}
			case "Server":
				if !litSetsField(v, "ReadHeaderTimeout") {
					pass.Reportf(v.Pos(), "http.Server literal sets no ReadHeaderTimeout; "+
						"a client trickling header bytes pins the connection forever (slowloris) — set ReadHeaderTimeout")
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := pass.Info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil &&
				obj.Pkg().Path() == "net/http" && obj.Name() == "DefaultClient" {
				if !hasCtxReq {
					pass.Reportf(v.Pos(), "http.DefaultClient has no Timeout: a single hung peer blocks every caller sharing it; "+
						"construct a client with Timeout, or build requests with NewRequestWithContext")
				}
			}
		case *ast.CallExpr:
			obj := StaticCallee(pass.Info, v)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" || recvNamed(obj) != "" {
				return true
			}
			switch obj.Name() {
			case "Get", "Post", "PostForm", "Head":
				if (inLoop(v.Pos()) || ctxTaking) && !hasCtxReq {
					pass.Reportf(v.Pos(), "http.%s uses http.DefaultClient, which has no Timeout; in a %s it turns one hung peer into a hang — "+
						"use a client with Timeout or NewRequestWithContext", obj.Name(), loopOrCtx(inLoop(v.Pos())))
				}
			case "ListenAndServe", "ListenAndServeTLS":
				pass.Reportf(v.Pos(), "http.%s constructs a Server with no timeouts and no Shutdown handle; "+
					"build an http.Server with ReadHeaderTimeout and serve it with a graceful shutdown path", obj.Name())
			}
		}
		return true
	})
}

func loopOrCtx(inLoop bool) string {
	if inLoop {
		return "loop"
	}
	return "context-taking function"
}

// litNamed resolves a composite literal's type to its named type,
// looking through one pointer (for &http.Client{...}).
func litNamed(info *types.Info, lit *ast.CompositeLit) *types.Named {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func litSetsField(lit *ast.CompositeLit, field string) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return true
			}
		}
	}
	return false
}
