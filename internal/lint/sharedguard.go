package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SharedGuard is static race detection in the RacerD style: for every
// struct field, package-level variable and captured local it computes
// the locks consistently held at each access (via the lockheld
// must-held dataflow, the EntryHeld caller-lock summaries, and per-
// goroutine-context segmentation of function bodies) and reports
// accesses whose guard sets cannot intersect.
//
// Three rules:
//
//  1. Mixed guard (fields and package vars): a location guarded by a
//     sibling lock at some access site but accessed elsewhere with no
//     relevant lock held. The existing guards are the programmer's own
//     declaration that the location is shared; no spawn evidence is
//     required.
//  2. Unguarded concurrent writes (fields and package vars): no lock
//     anywhere, but a write happens in a goroutine context (inside a
//     go-literal or in a function reachable from a go statement) while
//     another context also accesses the location.
//  3. Captured locals: a local written in one goroutine context of its
//     function and accessed in another with no common lock — including
//     a go-literal spawned in a loop racing against its own instances.
//
// Escape hatches, each a documented heuristic, not a proof:
// read-only-after-publication (no writes outside constructors and
// owned values ⇒ safe); constructor writes (functions named New*/Open*
// or init, or returning the owner type, initialize before publication);
// owned values (accesses through a freshly allocated local, a value-
// typed variable, or a value receiver are private copies or
// pre-publication state); pre-spawn and post-join accesses in the
// spawning function (before the first go statement, or after a
// WaitGroup.Wait that follows every go statement, the spawner has the
// location to itself); per-slot slice writes (walkAccesses demotes
// element writes to base reads). Locations that are themselves sync
// primitives, channels or typed atomics are not tracked: their own
// API is the guard. Calls through function values, interface methods,
// and closures executed on foreign goroutines (e.g. handler callbacks)
// are invisible, so a context classified as non-concurrent may in
// reality run concurrently — the usual soundness gap of the static
// call graph.
var SharedGuard = &Analyzer{
	Name: "sharedguard",
	Doc: "flag struct fields, package variables and captured locals accessed from multiple " +
		"goroutine contexts whose held-lock sets cannot intersect (static race detection)",
	Scope: underInternalOrCmd,
	Run:   runSharedGuard,
}

func runSharedGuard(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	for _, f := range pass.Prog.sharedGuardFindings() {
		if f.pkgPath == pass.Path {
			pass.report(Diagnostic{Pos: f.pos, Analyzer: pass.Analyzer.Name, Message: f.msg})
		}
	}
	return nil
}

// sgFinding is one sharedguard diagnostic, computed once per Program
// and routed to the pass of the package it belongs to.
type sgFinding struct {
	pkgPath string
	pos     token.Position
	msg     string
}

func (p *Program) sharedGuardFindings() []sgFinding {
	p.sgOnce.Do(func() { p.sgFindings = computeSharedGuard(p) })
	return p.sgFindings
}

// sgSegment is one goroutine context of a declaration: the declaration
// body itself, or a nested function literal. Literals spawned by a go
// statement form their own context; other literals inherit the context
// they are written in (they usually run on the same goroutine — a
// documented heuristic).
type sgSegment struct {
	node   ast.Node // *ast.FuncDecl or *ast.FuncLit
	ctxID  string
	goCtx  bool // executes on (or is reachable from) a spawned goroutine
	looped bool // spawned inside a loop: races against its own instances
	root   bool // the declaration segment itself
}

// sgAccess is one observed access to a tracked location.
type sgAccess struct {
	pkg      *Package
	pos      token.Pos
	write    bool
	ctxID    string
	goCtx    bool
	looped   bool
	guards   heldSet // raw lock keys held at the access
	exempt   bool    // constructor or owned-value access
	root     bool    // in the declaration segment
	preGo    bool    // root-segment access before the first go statement
	postJoin bool    // root-segment access after the joining Wait
}

// sgLoc aggregates the accesses of one canonical location key.
type sgLoc struct {
	key  string
	kind accKind
	name string // display name for diagnostics
	accs []sgAccess
}

// accKind classifies what an access key refers to.
type accKind int

const (
	accKindField accKind = iota
	accKindPkgVar
	accKindLocal
)

func computeSharedGuard(p *Program) []sgFinding {
	table := map[string]*sgLoc{}
	for _, key := range p.Graph.Keys {
		fn := p.Graph.Funcs[key]
		if fn.Decl.Body == nil {
			continue
		}
		collectDeclAccesses(p, fn, table)
	}

	var findings []sgFinding
	for _, key := range sortedLocKeys(table) {
		findings = append(findings, evalLocation(table[key])...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings
}

func sortedLocKeys(table map[string]*sgLoc) []string {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectDeclAccesses walks every segment of one declaration and files
// each tracked access under its canonical location key.
func collectDeclAccesses(p *Program, fn *FuncInfo, table map[string]*sgLoc) {
	info := fn.Pkg.Info
	ctx := &lockCtx{Info: info, Pkg: fn.Pkg.Pkg, Path: fn.Pkg.Path, Enclosing: fn.Key}
	segs := enumerateSegments(p, fn)
	owned := ownedLocals(info, fn.Decl)
	recv := receiverVar(info, fn.Decl)
	ctorAll, ctorFor := constructorOf(fn)
	firstGo, joinPos := joinWindow(info, fn.Decl)

	// declaredInLiteral reports whether a position falls inside any
	// function literal of the declaration: a local declared there is
	// per-instance state of that literal, never shared between its
	// invocations.
	declaredInLiteral := func(pos token.Pos) bool {
		for _, s := range segs {
			if !s.root && s.node.Pos() <= pos && pos < s.node.End() {
				return true
			}
		}
		return false
	}

	for _, seg := range segs {
		var entry []string
		if !seg.goCtx {
			// Non-spawned segments run on the caller's goroutine; a
			// closure created while a lock is held usually runs under it
			// (heuristic — a stored closure may outlive the lock).
			entry = p.EntryHeld[fn.Key]
		}
		seg := seg
		forEachHeldAccess(ctx, seg.node, entry, func(e ast.Expr, write bool, held heldSet) {
			key, kind, vr, base, ok := classifyAccess(ctx, fn, e, owned, recv)
			if !ok {
				return
			}
			if kind == accKindLocal && declaredInLiteral(vr.Pos()) {
				return
			}
			if isSyncPrimitiveType(vr.Type()) || isTypedAtomic(vr.Type()) {
				return
			}
			exempt := false
			if kind == accKindField {
				if owner, okOwner := ownerOf(key); okOwner {
					if ctorFor[owner] || (ctorAll && strings.HasPrefix(owner, fn.Pkg.Path+".")) {
						exempt = true
					}
				}
				if base != nil && owned[base] {
					exempt = true
				}
			}
			acc := sgAccess{
				pkg:    fn.Pkg,
				pos:    e.Pos(),
				write:  write,
				ctxID:  seg.ctxID,
				goCtx:  seg.goCtx,
				looped: seg.looped,
				guards: held.clone(),
				exempt: exempt,
				root:   seg.root,
			}
			if !seg.goCtx && firstGo != token.NoPos {
				acc.preGo = acc.pos < firstGo
				acc.postJoin = joinPos != token.NoPos && acc.pos > joinPos
			}
			loc := table[key]
			if loc == nil {
				loc = &sgLoc{key: key, kind: kind, name: displayName(key, kind)}
				table[key] = loc
			}
			loc.accs = append(loc.accs, acc)
		})
	}
}

// enumerateSegments lists the goroutine contexts of one declaration.
// Literals appear in preorder, so a literal's enclosing literals are
// assigned before it; the innermost enclosing context wins.
func enumerateSegments(p *Program, fn *FuncInfo) []sgSegment {
	rootSeg := sgSegment{node: fn.Decl, ctxID: fn.Key, goCtx: p.spawnReachable()[fn.Key], root: true}
	segs := []sgSegment{rootSeg}
	spawned := map[*ast.FuncLit]*ast.GoStmt{}
	var lits []*ast.FuncLit
	var loops []ast.Node
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
				spawned[lit] = v
			}
		case *ast.FuncLit:
			lits = append(lits, v)
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	inLoop := func(at token.Pos) bool {
		for _, l := range loops {
			if l.Pos() < at && at < l.End() {
				return true
			}
		}
		return false
	}
	ctxOf := map[*ast.FuncLit]sgSegment{}
	for _, lit := range lits {
		parent := rootSeg
		for _, outer := range lits {
			if outer == lit {
				break
			}
			if outer.Pos() <= lit.Pos() && lit.End() <= outer.End() {
				parent = ctxOf[outer]
			}
		}
		seg := sgSegment{node: lit, ctxID: parent.ctxID, goCtx: parent.goCtx, looped: parent.looped}
		if g, isGo := spawned[lit]; isGo {
			pp := fn.Pkg.Fset.Position(lit.Pos())
			seg.ctxID = fmt.Sprintf("%s@go:%d:%d", fn.Key, pp.Line, pp.Column)
			seg.goCtx = true
			seg.looped = parent.looped || inLoop(g.Pos())
		}
		ctxOf[lit] = seg
		segs = append(segs, seg)
	}
	return segs
}

// classifyAccess canonicalizes an access expression and classifies its
// sharing domain by the root of the expression:
//
//   - a bare identifier: package variable or function local;
//   - a field chain rooted in a receiver, a pointer parameter or a
//     pointer obtained from shared state: the type-canonical field key
//     "(pkg.T).f" — guard discipline applies across all instances;
//   - a field chain rooted in a value-typed or freshly allocated local:
//     the root local itself (capture semantics decide sharing, rule 3);
//   - a chain rooted in a package variable: "pkgpath.var.f".
//
// base returns the root variable for owned-value checks.
func classifyAccess(ctx *lockCtx, fn *FuncInfo, e ast.Expr, owned map[*types.Var]bool, recv *types.Var) (
	key string, kind accKind, vr *types.Var, base *types.Var, ok bool) {

	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return "", 0, nil, nil, false
		}
		obj, isVar := ctx.Info.Uses[v].(*types.Var)
		if !isVar || obj.IsField() {
			return "", 0, nil, nil, false
		}
		if obj.Parent() == ctx.Pkg.Scope() || (obj.Pkg() != nil && obj.Pkg().Scope() == obj.Parent()) {
			return obj.Pkg().Path() + "." + v.Name, accKindPkgVar, obj, nil, true
		}
		return localKey(fn, obj), accKindLocal, obj, obj, true
	case *ast.SelectorExpr:
		sel, isVar := ctx.Info.Uses[v.Sel].(*types.Var)
		if !isVar {
			return "", 0, nil, nil, false
		}
		root := rootIdent(v)
		if root == nil {
			return "", 0, nil, nil, false
		}
		switch robj := ctx.Info.Uses[root].(type) {
		case *types.PkgName:
			if !sel.IsField() {
				// Qualified package-level variable pkg.V.
				return lockKeyOf(ctx, v), accKindPkgVar, sel, nil, true
			}
			return lockKeyOf(ctx, v), accKindPkgVar, sel, nil, true
		case *types.Var:
			if !sel.IsField() {
				return "", 0, nil, nil, false
			}
			if robj.Parent() == ctx.Pkg.Scope() || (robj.Pkg() != nil && robj.Pkg().Scope() == robj.Parent()) {
				return lockKeyOf(ctx, v), accKindPkgVar, sel, nil, true
			}
			// Local root: sharing depends on what the root aliases.
			_, isPtr := robj.Type().(*types.Pointer)
			if robj == recv {
				if isPtr {
					return lockKeyOf(ctx, v), accKindField, sel, robj, true
				}
				// Value receiver: a private copy.
				return localKey(fn, robj), accKindLocal, robj, robj, true
			}
			if !isPtr || owned[robj] {
				// Value-typed local/param (a copy) or freshly allocated
				// pointer: capture semantics decide sharing.
				return localKey(fn, robj), accKindLocal, robj, robj, true
			}
			// Pointer from a parameter, call or shared structure:
			// aliases state published elsewhere.
			return lockKeyOf(ctx, v), accKindField, sel, robj, true
		}
	}
	return "", 0, nil, nil, false
}

// localKey names a function-local variable uniquely within the program:
// declaration key, name, and the variable's defining position (two
// locals named x in different scopes stay distinct).
func localKey(fn *FuncInfo, v *types.Var) string {
	return fmt.Sprintf("%s·%s#%d", fn.Key, v.Name(), int(v.Pos()))
}

// ownerOf extracts "pkgpath.Type" from a type-canonical field key
// "(pkgpath.Type).field".
func ownerOf(key string) (string, bool) {
	if !strings.HasPrefix(key, "(") {
		return "", false
	}
	i := strings.IndexByte(key, ')')
	if i < 0 {
		return "", false
	}
	return key[1:i], true
}

// displayName renders a location key for diagnostics.
func displayName(key string, kind accKind) string {
	if kind == accKindLocal {
		// fn·name#pos → name
		if i := strings.Index(key, "·"); i >= 0 {
			rest := key[i+len("·"):]
			if j := strings.IndexByte(rest, '#'); j >= 0 {
				return rest[:j]
			}
			return rest
		}
	}
	return key
}

// ownedLocals collects the local variables of decl whose defining
// assignment is a fresh allocation — &T{...}, T{...}, new(T), make(...)
// — and which therefore start out private to the function. Ownership is
// a heuristic: a later publication (storing the pointer into shared
// state) is not tracked.
func ownedLocals(info *types.Info, decl *ast.FuncDecl) map[*types.Var]bool {
	owned := map[*types.Var]bool{}
	if decl.Body == nil {
		return owned
	}
	fresh := func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, lit := ast.Unparen(v.X).(*ast.CompositeLit)
			return v.Op == token.AND && lit
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					return id.Name == "new" || id.Name == "make"
				}
			}
		}
		return false
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !fresh(v.Rhs[i]) {
					continue
				}
				if obj, ok := info.Defs[id].(*types.Var); ok {
					owned[obj] = true
				} else if obj, ok := info.Uses[id].(*types.Var); ok {
					owned[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) != len(v.Values) {
				return true
			}
			for i, id := range v.Names {
				if fresh(v.Values[i]) {
					if obj, ok := info.Defs[id].(*types.Var); ok {
						owned[obj] = true
					}
				}
			}
		}
		return true
	})
	return owned
}

// receiverVar returns decl's receiver variable, or nil.
func receiverVar(info *types.Info, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// constructorOf reports whether fn looks like a constructor: all=true
// for New*/Open*/init names (any type of the same package), and types
// named in ctorFor ("pkgpath.Type") when fn returns the type.
func constructorOf(fn *FuncInfo) (all bool, ctorFor map[string]bool) {
	ctorFor = map[string]bool{}
	name := fn.Obj.Name()
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Open") || name == "init" {
		all = true
	}
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return all, ctorFor
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			ctorFor[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
		}
	}
	return all, ctorFor
}

// joinWindow locates the spawn/join structure of decl: the position of
// the first go statement, and the position of the first WaitGroup.Wait
// call that follows every go statement (the join point after which the
// spawner owns captured state again). Either is NoPos when absent.
func joinWindow(info *types.Info, decl *ast.FuncDecl) (firstGo, joinPos token.Pos) {
	var goPos []token.Pos
	var waits []token.Pos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			goPos = append(goPos, v.Pos())
		case *ast.CallExpr:
			if isBlockingStdCall(info, v) {
				if obj := StaticCallee(info, v); obj != nil && obj.Name() == "Wait" {
					waits = append(waits, v.Pos())
				}
			}
		}
		return true
	})
	if len(goPos) == 0 {
		return token.NoPos, token.NoPos
	}
	firstGo = goPos[0]
	lastGo := goPos[0]
	for _, p := range goPos {
		if p < firstGo {
			firstGo = p
		}
		if p > lastGo {
			lastGo = p
		}
	}
	joinPos = token.NoPos
	for _, w := range waits {
		if w > lastGo && (joinPos == token.NoPos || w < joinPos) {
			joinPos = w
		}
	}
	return firstGo, joinPos
}

// siblingGuards filters the raw held set of an access down to the locks
// that can plausibly guard the location: for a field "(pkg.T).f", locks
// of the same struct or the same package; for a package variable,
// locks of the same package.
func siblingGuards(key string, kind accKind, held heldSet) []string {
	var prefixes []string
	switch kind {
	case accKindField:
		owner, ok := ownerOf(key)
		if !ok {
			return nil
		}
		prefixes = []string{"(" + owner + ")."}
		if i := strings.LastIndexByte(owner, '.'); i > 0 {
			prefixes = append(prefixes, owner[:i]+".")
		}
	case accKindPkgVar:
		if i := strings.LastIndexByte(key, '.'); i > 0 {
			prefixes = append(prefixes, key[:i+1])
		}
	default:
		// Locals: any lock counts — local state is typically guarded by
		// a local or sibling mutex, and precision matters less than not
		// missing the guard.
		return sortedKeys(held)
	}
	var out []string
	for lk := range held {
		for _, p := range prefixes {
			if strings.HasPrefix(lk, p) {
				out = append(out, lk)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// evalLocation applies the three rules to one location's accesses.
func evalLocation(loc *sgLoc) []sgFinding {
	var accs []sgAccess
	for _, a := range loc.accs {
		if !a.exempt {
			accs = append(accs, a)
		}
	}
	hasWrite := false
	for _, a := range accs {
		if a.write {
			hasWrite = true
			break
		}
	}
	if !hasWrite {
		return nil // read-only after publication
	}
	if loc.kind == accKindLocal {
		return evalLocal(loc, accs)
	}
	return evalShared(loc, accs)
}

// evalShared handles fields and package variables: rule 1 (mixed
// guard), then rule 2 (unguarded concurrent writes).
func evalShared(loc *sgLoc, accs []sgAccess) []sgFinding {
	type guarded struct {
		acc    sgAccess
		guards []string
	}
	var withGuard, without []guarded
	for _, a := range accs {
		g := siblingGuards(loc.key, loc.kind, a.guards)
		if len(g) > 0 {
			withGuard = append(withGuard, guarded{a, g})
		} else {
			without = append(without, guarded{a, nil})
		}
	}
	var findings []sgFinding
	if len(withGuard) > 0 {
		if len(without) == 0 {
			return nil // consistently guarded
		}
		// Rule 1: mixed guard — name the most common guard lock.
		count := map[string]int{}
		for _, g := range withGuard {
			for _, lk := range g.guards {
				count[lk]++
			}
		}
		lock, bestN := "", -1
		for lk, n := range count {
			if n > bestN || (n == bestN && lk < lock) {
				lock, bestN = lk, n
			}
		}
		ref := withGuard[0].acc
		seen := map[token.Pos]bool{}
		for _, g := range without {
			if seen[g.acc.pos] {
				continue
			}
			seen[g.acc.pos] = true
			findings = append(findings, sgFinding{
				pkgPath: g.acc.pkg.Path,
				pos:     g.acc.pkg.Fset.Position(g.acc.pos),
				msg: fmt.Sprintf("%s of %s without holding %s, which guards it at other access sites (e.g. %s); "+
					"take the lock here or move the access into the guarded section",
					rw(g.acc.write), loc.name, lock, ref.pkg.Fset.Position(ref.pos)),
			})
		}
		return findings
	}
	// Rule 2: no guards anywhere — need goroutine-context evidence.
	for _, w := range without {
		if !w.acc.write || !w.acc.goCtx {
			continue
		}
		for _, o := range without {
			if o.acc.ctxID == w.acc.ctxID {
				continue
			}
			findings = append(findings, sgFinding{
				pkgPath: w.acc.pkg.Path,
				pos:     w.acc.pkg.Fset.Position(w.acc.pos),
				msg: fmt.Sprintf("%s is written here in a goroutine context and also accessed at %s with no lock guarding either; "+
					"guard both sites with one mutex or make the field atomic",
					loc.name, o.acc.pkg.Fset.Position(o.acc.pos)),
			})
			return findings // one report per location
		}
	}
	return findings
}

// evalLocal handles captured locals: rule 3.
func evalLocal(loc *sgLoc, accs []sgAccess) []sgFinding {
	// Pre-spawn and post-join accesses on the spawner's goroutine are
	// owned by the spawner.
	var live []sgAccess
	for _, a := range accs {
		if a.preGo || a.postJoin {
			continue
		}
		live = append(live, a)
	}
	disjoint := func(a, b sgAccess) bool {
		for k := range a.guards {
			if b.guards[k] {
				return false
			}
		}
		return true
	}
	for _, w := range live {
		if !w.write {
			continue
		}
		// Self-race: written by a goroutine spawned in a loop.
		if w.goCtx && w.looped && len(w.guards) == 0 {
			return []sgFinding{{
				pkgPath: w.pkg.Path,
				pos:     w.pkg.Fset.Position(w.pos),
				msg: fmt.Sprintf("captured variable %s is written in a goroutine spawned in a loop with no lock held; "+
					"concurrent instances race on it — guard it with a mutex or make it per-iteration",
					loc.name),
			}}
		}
		for _, o := range live {
			if o.ctxID == w.ctxID || (!w.goCtx && !o.goCtx) || !disjoint(w, o) {
				continue
			}
			return []sgFinding{{
				pkgPath: w.pkg.Path,
				pos:     w.pkg.Fset.Position(w.pos),
				msg: fmt.Sprintf("captured variable %s is written here and accessed at %s from a different goroutine context "+
					"with no common lock; guard both sites or hand the goroutine its own copy",
					loc.name, o.pkg.Fset.Position(o.pos)),
			}}
		}
	}
	return nil
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
