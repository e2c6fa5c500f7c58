package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// This file computes the per-function effect summaries the
// interprocedural analyzers consume, bottom-up over the call graph's
// strongly connected components: may the function block on a channel
// or a wait, spawn goroutines, range over a map, send on a channel, emit
// serialized output, release a caller's resource or touch the network —
// each a single monotone bit, OR-joined from the function's own syntax
// and its callees' summaries (ascending fixpoint within an SCC).
//
// Known soundness gaps, by design: calls through function values and
// interface methods contribute no edges (their effects are invisible);
// functions without bodies in the set (assembly, external) summarize as
// effect-free.

// Effects is the may-effect bitmask of one function.
type Effects uint16

const (
	// EffMayBlock: may block indefinitely on a channel operation, a
	// select with no default, a sync.WaitGroup.Wait, or a time.Sleep.
	// Acquiring a mutex is deliberately excluded: contention is not an
	// indefinite wait.
	EffMayBlock Effects = 1 << iota
	// EffSpawns: may start a goroutine.
	EffSpawns
	// EffRangesMap: may range over a map.
	EffRangesMap
	// EffSendsChan: may send on a channel (task dispatch).
	EffSendsChan
	// EffEmitsOutput: may write to a stream, writer, hash or encoder —
	// anything where call order becomes observable byte order.
	EffEmitsOutput
	// EffReleases: may release a resource handed in by the caller — a
	// Close or Stop call on an expression rooted at a parameter or the
	// receiver. resleak consumes it at call sites: passing a tracked
	// handle to an EffReleases callee transfers the release obligation,
	// passing it to any other in-set callee does not. The bit ORs
	// through the fixpoint like the others, which is coarse in one
	// known way: a caller inherits it even when the releasing callee
	// only ever receives the caller's own locals — that can only hide a
	// leak (a missed report), never invent one.
	EffReleases
	// EffNetwork: may perform network I/O — a net Dial/Listen/Lookup, an
	// http.Client/Transport request, or the package-level http sugar —
	// directly or through any in-set callee. retrybudget keys on it: a
	// loop around a network effect is a retry loop and owes a budget.
	EffNetwork
)

// Program bundles the package set with its call graph and summaries;
// RunAnalyzers builds one per run and hands it to every Pass.
type Program struct {
	Graph *CallGraph
	// Effects is keyed like Graph.Funcs.
	Effects map[string]Effects
	// CtxParam maps a function key to the index of its first
	// context.Context parameter; functions without one are absent.
	// ctxflow reads it to decide whether a callee can carry a context.
	CtxParam map[string]int
	// EntryHeld maps a function key to the locks held on every observed
	// static path into it (empty/absent = none provable). sharedguard
	// reads it so xxxLocked helpers inherit their callers' guards.
	EntryHeld map[string][]string
	// Obligations counts the facts the obligation solver tracked over
	// the run (httpguard responses, ctxflow cancels, resleak handles);
	// surfaced by -stats. The analyzer loop is sequential, so a plain
	// int is safe.
	Obligations int

	// kvTakers caches slogkv's kv-taking function set (seed signatures
	// plus wrapper propagation); see slogkv.go.
	kvTakers map[string]bool
	kvOnce   sync.Once

	// spawnReach caches the set of functions reachable from a goroutine
	// (spawn roots plus transitive callees); see concurrency.go.
	spawnReach map[string]bool
	spawnOnce  sync.Once

	// sgFindings caches sharedguard's program-wide findings; each pass
	// reports the subset belonging to its package (see sharedguard.go).
	sgFindings []sgFinding
	sgOnce     sync.Once
}

// BuildProgram computes the call graph and all summaries for pkgs.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Graph:   BuildCallGraph(pkgs),
		Effects: map[string]Effects{},
	}
	p.computeEffects()
	p.computeCtxParams()
	p.computeEntryHeld()
	return p
}

// --- effect summaries ------------------------------------------------------

func (p *Program) computeEffects() {
	direct := map[string]Effects{}
	for _, key := range p.Graph.Keys {
		direct[key] = directEffects(p.Graph.Funcs[key])
	}
	// Bottom-up over SCCs; within a component, iterate the OR system to
	// its (ascending) fixpoint.
	for _, scc := range p.Graph.SCCs {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				eff := direct[key]
				for _, callee := range p.Graph.Funcs[key].Callees {
					eff |= p.Effects[callee]
				}
				if eff != p.Effects[key] {
					changed = true
				}
				p.Effects[key] = eff
			}
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

// directEffects scans one function body — nested literals included,
// since they execute (or are spawned) under the function's dynamic
// extent — for the syntactic effect sources.
func directEffects(fn *FuncInfo) Effects {
	if fn.Decl.Body == nil {
		return 0
	}
	info := fn.Pkg.Info
	var eff Effects
	owned := ownedVars(fn)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			eff |= EffSendsChan | EffMayBlock
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				eff |= EffMayBlock
			}
		case *ast.RangeStmt:
			switch exprType(info, v.X).(type) {
			case *types.Map:
				eff |= EffRangesMap
			case *types.Chan:
				eff |= EffMayBlock
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) {
				eff |= EffMayBlock
			}
		case *ast.GoStmt:
			eff |= EffSpawns
		case *ast.CallExpr:
			if isBlockingStdCall(info, v) {
				eff |= EffMayBlock
			}
			if isOutputCall(info, v) {
				eff |= EffEmitsOutput
			}
			if isNetworkCall(info, v) {
				eff |= EffNetwork
			}
			if releasesOwned(info, v, owned) {
				eff |= EffReleases
			}
		}
		return true
	})
	return eff
}

// ownedVars collects the parameter and receiver variables of fn — the
// values a caller hands it, whose release would discharge the caller's
// obligation.
func ownedVars(fn *FuncInfo) map[*types.Var]bool {
	owned := map[*types.Var]bool{}
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return owned
	}
	if r := sig.Recv(); r != nil {
		owned[r] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		owned[sig.Params().At(i)] = true
	}
	return owned
}

// releasesOwned reports whether call is a Close or Stop method call on
// an expression rooted at one of fn's parameters or its receiver — the
// direct source of the EffReleases bit.
func releasesOwned(info *types.Info, call *ast.CallExpr, owned map[*types.Var]bool) bool {
	if len(owned) == 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Stop") {
		return false
	}
	root := rootIdent(ast.Unparen(sel.X))
	if root == nil {
		return false
	}
	v, ok := info.Uses[root].(*types.Var)
	return ok && owned[v]
}

// networkFuncs lists the package-level standard-library functions that
// perform network I/O; networkMethods the method names per receiver
// type. Parsing-only neighbours (net/url, http.StatusText) stay out:
// the bit means "talks to the wire", not "mentions HTTP".
var networkFuncs = map[string]map[string]bool{
	"net": {"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
		"LookupHost": true, "LookupAddr": true, "LookupIP": true, "LookupCNAME": true},
	"net/http": {"Get": true, "Post": true, "PostForm": true, "Head": true,
		"ListenAndServe": true, "ListenAndServeTLS": true},
}

var networkMethods = map[string]map[string]bool{
	"Client":    {"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true},
	"Transport": {"RoundTrip": true},
	"Server":    {"ListenAndServe": true, "ListenAndServeTLS": true, "Serve": true},
	"Dialer":    {"Dial": true, "DialContext": true},
	"Resolver":  {"LookupHost": true, "LookupAddr": true, "LookupIP": true},
}

// isNetworkCall reports whether the call statically resolves to a
// standard-library network operation — the direct source of the
// EffNetwork bit (in-set callees contribute through the fixpoint).
func isNetworkCall(info *types.Info, call *ast.CallExpr) bool {
	obj := StaticCallee(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path != "net" && path != "net/http" {
		return false
	}
	if recv := recvNamed(obj); recv != "" {
		names := networkMethods[recv]
		return names != nil && names[obj.Name()]
	}
	names := networkFuncs[path]
	return names != nil && names[obj.Name()]
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
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
// lock held, so flagging it under lockheld would be wrong by contract.
func isBlockingStdCall(info *types.Info, call *ast.CallExpr) bool {
	obj := StaticCallee(info, call)
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

// outputFuncs lists the package-level functions that serialize their
// arguments to a stream in call order.
var outputFuncs = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true},
	"io":              {"WriteString": true, "Copy": true},
	"encoding/binary": {"Write": true},
	"log":             {"Print": true, "Printf": true, "Println": true},
	"os":              {"WriteFile": true},
}

// outputMethods lists the method names treated as serialized output on
// any receiver: writers, encoders and hashes alike — wherever call
// order becomes observable byte order. Name-based matching is coarse
// by design; a bespoke Write method that is genuinely order-free can
// carry an //esselint:allow maporder directive at the range site.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Flush": true, "Print": true, "Printf": true, "Println": true,
}

// isOutputCall reports whether the call serializes data in call order.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	obj := StaticCallee(info, call)
	if obj == nil {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if isMethod {
		return outputMethods[obj.Name()]
	}
	if obj.Pkg() == nil {
		return false
	}
	names := outputFuncs[obj.Pkg().Path()]
	return names != nil && names[obj.Name()]
}
