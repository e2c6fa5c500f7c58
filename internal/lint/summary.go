package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// This file computes the per-function summaries the interprocedural
// analyzers consume, bottom-up over the call graph's strongly
// connected components:
//
//   - effect summaries: may the function block on a channel or a
//     wait, spawn goroutines, range over a map, send on a channel, or
//     emit serialized output — each a single monotone bit, OR-joined
//     from the function's own syntax and its callees' summaries
//     (ascending fixpoint within an SCC);
//   - lock summaries: the canonical keys of the mutexes a function may
//     acquire, transitively (set union, ascending fixpoint);
//   - numeric summaries: per-result sign masks in the divguard lattice
//     (nonzero / non-negative / non-positive), computed by re-running
//     the divguard dataflow over the callee body with the trust
//     boundary *disabled* — a summary must hold for every caller — in
//     two scenarios: parameters unknown (Base) and all float
//     parameters assumed positive (AllPos). Recursive components
//     iterate from the optimistic all-bits element down to a greatest
//     fixpoint, so facts survive mutual recursion; the claim is
//     divergence-insensitive (a non-terminating path proves anything
//     vacuously), which is the standard partial-correctness reading.
//
// Known soundness gaps, by design: calls through function values and
// interface methods contribute no edges (their effects and results are
// invisible); functions without bodies in the set (assembly, external)
// summarize as effect-free with unknown results.

// Effects is the may-effect bitmask of one function.
type Effects uint16

const (
	// EffMayBlock: may block indefinitely on a channel operation, a
	// select with no default, a sync.WaitGroup.Wait, or a time.Sleep.
	// Acquiring a mutex is deliberately excluded: nested acquisition
	// is the lock-order analyzer's job, with better precision.
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
	// EffAllocates: may perform heap allocation on an ordinary call —
	// make/new, slice or map composite literals, &T{} pointer literals,
	// string concatenation, or the creation of a capturing closure.
	// Allocation under a lazy-init guard (`if buf == nil`, `if cap(buf)
	// < n`) is amortized and deliberately excluded, as are goroutine
	// bodies (a per-call spawn is EffSpawns' cost to report). hotalloc
	// consumes this bit at loop-borne call sites.
	EffAllocates
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

// NumSummary is the numeric summary of one function's results.
type NumSummary struct {
	// NumParams is the flattened parameter count; Variadic marks a
	// trailing ...T. FloatParams indexes the float-typed parameters.
	NumParams   int
	Variadic    bool
	FloatParams []int
	// Base[i] is the proven sign mask of result i with nothing assumed
	// about the arguments; AllPos[i] assumes every float argument is
	// provably positive at the call site.
	Base, AllPos []uint8
}

// LockPair records one acquisition order observed somewhere in the
// package set: After was acquired (directly or through a call) while
// Before was held.
type LockPair struct {
	Before, After string
	Pos           token.Position
	PkgPath       string
	// Via names the called function the acquisition happened through,
	// or "" for a direct Lock call at Pos.
	Via string
}

// Program bundles the package set with its call graph and summaries;
// RunAnalyzers builds one per run and hands it to every Pass.
type Program struct {
	Graph *CallGraph
	// Effects, Locks and Numeric are keyed like Graph.Funcs.
	Effects map[string]Effects
	Locks   map[string][]string
	Numeric map[string]*NumSummary
	// LockPairs lists every observed acquisition order, sorted by
	// position. lockheld cross-references them for inversions.
	LockPairs []LockPair
	// CtxParam maps a function key to the index of its first
	// context.Context parameter; functions without one are absent.
	// ctxflow reads it to decide whether a callee can carry a context.
	CtxParam map[string]int
	// EntryHeld maps a function key to the locks held on every observed
	// static path into it (empty/absent = none provable). sharedguard
	// reads it so xxxLocked helpers inherit their callers' guards.
	EntryHeld map[string][]string
	// WireTypes maps the canonical "pkgpath.Name" key of every named
	// type that reaches an encoding/json sink anywhere in the set —
	// closed over the call graph and the type structure — to its sink
	// sites. FiniteFields holds the "pkgpath.Type.Field" keys of float
	// struct fields with a finite (IsNaN/IsInf) check somewhere in the
	// tree. jsonwire consumes both; see wirefacts.go.
	WireTypes    map[string]*WireFact
	FiniteFields map[string]bool
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
		Locks:   map[string][]string{},
		Numeric: map[string]*NumSummary{},
	}
	p.computeEffects()
	p.computeNumeric()
	p.LockPairs = collectLockPairs(p)
	p.computeCtxParams()
	p.computeEntryHeld()
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	p.computeWireTypes(loaded)
	p.computeFiniteFields(loaded)
	return p
}

// FuncEffects returns the transitive effect summary of the statically
// resolved callee of call, or 0 when the callee is unknown.
func (p *Program) FuncEffects(info *types.Info, call *ast.CallExpr) Effects {
	if fn := StaticCallee(info, call); fn != nil {
		return p.Effects[fn.FullName()]
	}
	return 0
}

// --- effect summaries ------------------------------------------------------

func (p *Program) computeEffects() {
	direct := map[string]Effects{}
	directLocks := map[string]map[string]bool{}
	unguarded := map[string]map[string]bool{}
	for _, key := range p.Graph.Keys {
		fn := p.Graph.Funcs[key]
		direct[key], directLocks[key] = directEffects(fn)
		unguarded[key] = unguardedCallees(fn)
	}
	// Bottom-up over SCCs; within a component, iterate the OR/union
	// system to its (ascending) fixpoint.
	for _, scc := range p.Graph.SCCs {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				eff := direct[key]
				locks := directLocks[key]
				for _, callee := range p.Graph.Funcs[key].Callees {
					ceff := p.Effects[callee]
					// Allocation amortized behind a lazy-init guard at
					// every call site is not the caller's per-call cost.
					if !unguarded[key][callee] {
						ceff &^= EffAllocates
					}
					eff |= ceff
					for _, lk := range p.Locks[callee] {
						if !locks[lk] {
							locks[lk] = true
						}
					}
				}
				if eff != p.Effects[key] || len(locks) != len(p.Locks[key]) {
					changed = true
				}
				p.Effects[key] = eff
				p.Locks[key] = sortedKeys(locks)
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
// extent — for the syntactic effect sources and direct lock
// acquisitions.
func directEffects(fn *FuncInfo) (Effects, map[string]bool) {
	locks := map[string]bool{}
	if fn.Decl.Body == nil {
		return 0, locks
	}
	info := fn.Pkg.Info
	var eff Effects
	if allocatesDirectly(info, fn.Decl.Body) {
		eff |= EffAllocates
	}
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
			if key, kind := lockAcquire(fn, v); kind != lockNone {
				locks[key] = true
			}
		}
		return true
	})
	return eff, locks
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

// --- numeric summaries -----------------------------------------------------

const sfAll = sfNonZero | sfNonNeg | sfNonPos // lattice bottom: optimistic init

func (p *Program) computeNumeric() {
	for _, scc := range p.Graph.SCCs {
		// Optimistic initialization for the (possibly recursive)
		// component: claim everything, then descend to the greatest
		// fixpoint. Callee components are already final.
		var members []*FuncInfo
		for _, key := range scc {
			fn := p.Graph.Funcs[key]
			if fn.Decl.Body == nil || fn.Decl.Type.Results == nil || fn.Decl.Type.Results.NumFields() == 0 {
				continue
			}
			members = append(members, fn)
			p.Numeric[key] = newOptimisticSummary(fn)
		}
		if len(members) == 0 {
			continue
		}
		// Each productive iteration clears at least one of the 3 sign
		// bits of some result of some member, so the descent is bounded
		// by the component's total bit count (plus one final stable
		// round).
		cap := 0
		for _, fn := range members {
			cap += 3 * len(p.Numeric[fn.Key].Base) * 2
		}
		converged := false
		for iter := 0; iter <= cap; iter++ {
			changed := false
			for _, fn := range members {
				sum := p.Numeric[fn.Key]
				base := summaryResultMasks(p, fn, false)
				allPos := summaryResultMasks(p, fn, true)
				if !masksEqual(base, sum.Base) || !masksEqual(allPos, sum.AllPos) {
					changed = true
				}
				sum.Base, sum.AllPos = base, allPos
			}
			if !changed {
				converged = true
				break
			}
		}
		if !converged {
			// Cannot happen for a monotone descent, but if it ever did,
			// an optimistic leftover would be an unsound claim: drop
			// the component's summaries instead.
			for _, fn := range members {
				delete(p.Numeric, fn.Key)
			}
		}
	}
}

func newOptimisticSummary(fn *FuncInfo) *NumSummary {
	sig := fn.Obj.Type().(*types.Signature)
	sum := &NumSummary{
		NumParams: sig.Params().Len(),
		Variadic:  sig.Variadic(),
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isFloatType(sig.Params().At(i).Type()) {
			sum.FloatParams = append(sum.FloatParams, i)
		}
	}
	n := sig.Results().Len()
	sum.Base = make([]uint8, n)
	sum.AllPos = make([]uint8, n)
	for i := range sum.Base {
		sum.Base[i] = sfAll
		sum.AllPos[i] = sfAll
	}
	return sum
}

func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func masksEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
