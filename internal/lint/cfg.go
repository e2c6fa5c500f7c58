package lint

import (
	"go/ast"
	"go/token"
)

// This file implements the control-flow-graph layer the dataflow
// analyzer lockheld is built on. The graph is intraprocedural and
// syntactic: one CFG per *ast.FuncDecl or *ast.FuncLit body, with basic
// blocks holding the statements (and branch-condition expressions) that
// execute straight-line, joined by unlabelled edges.
//
// Handled control constructs: if/else, for (all three clauses), range,
// switch (expression and type), select, labeled statements,
// break/continue (with and without labels), goto, fallthrough, return,
// and the terminating calls panic and os.Exit. A defer statement is a
// node of the block it appears in, not woven into the graph at the
// exits: an analyzer decides what its deferred call means (lockheld
// skips it).

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every basic block; Blocks[0] is Entry and the last
	// block is the synthetic Exit that all returns converge on.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	Index int
	// Nodes holds statements and branch-condition expressions in
	// execution order. Condition expressions of if/for appear as the
	// last node of the block that branches on them.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Edge is one control transfer.
type Edge struct {
	From, To *Block
}

// BuildCFG constructs the control-flow graph of fn's body. fn must be a
// *ast.FuncDecl or *ast.FuncLit; a declaration without a body (external
// linkage) yields a graph with only Entry and Exit.
func BuildCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch v := fn.(type) {
	case *ast.FuncDecl:
		body = v.Body
	case *ast.FuncLit:
		body = v.Body
	default:
		panic("lint: BuildCFG requires *ast.FuncDecl or *ast.FuncLit")
	}
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelBlocks{}}
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	exit := b.newBlock()
	b.cfg.Exit = exit
	// Fall off the end of the body: implicit return.
	b.edgeTo(exit)
	for _, from := range b.returns {
		b.rawEdge(from, exit)
	}
	for _, g := range b.gotos {
		if lb := b.labels[g.label]; lb != nil {
			b.rawEdge(g.from, lb.head)
		}
	}
	return b.cfg
}

type labelBlocks struct {
	head *Block // target of goto / labeled loop continue resolution
	stmt *ast.LabeledStmt
}

type pendingGoto struct {
	from  *Block
	label string
}

// loopCtx tracks where break and continue jump to for the innermost
// enclosing loops/switches/selects, with optional labels.
type loopCtx struct {
	label        string
	breakTo      *Block // filled lazily: block after the construct
	continueTo   *Block // loop post/header; nil for switch/select
	breakEdges   []*Block
	isLoop       bool
	fallthroughs []*Block // pending fallthrough sources (switch only)
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *Block // nil when the current point is unreachable
	stack   []*loopCtx
	labels  map[string]*labelBlocks
	gotos   []pendingGoto
	returns []*Block
	// pendingLabel is set between a LabeledStmt and the statement it
	// labels, so loops can register their contexts under the label.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) rawEdge(from, to *Block) {
	e := &Edge{From: from, To: to}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// edgeTo links the current block to `to` (no-op if unreachable).
func (b *cfgBuilder) edgeTo(to *Block) {
	if b.cur != nil {
		b.rawEdge(b.cur, to)
	}
}

// startBlock begins a fresh block and makes it current.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	b.cur = blk
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		// Unreachable statement (after return/panic): park it in a
		// dangling block so analyzers still see its syntax.
		b.startBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(v.List)
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v)
	case *ast.RangeStmt:
		b.rangeStmt(v)
	case *ast.SwitchStmt:
		b.switchStmt(v)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(v)
	case *ast.SelectStmt:
		b.selectStmt(v)
	case *ast.LabeledStmt:
		b.labeledStmt(v)
	case *ast.ReturnStmt:
		b.add(v)
		if b.cur != nil {
			b.returns = append(b.returns, b.cur)
		}
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(v)
	case *ast.ExprStmt:
		b.add(v)
		if isTerminatingCall(v.X) {
			if b.cur != nil {
				b.returns = append(b.returns, b.cur)
			}
			b.cur = nil
		}
	default:
		// Assignments, declarations, sends, go and defer statements,
		// inc/dec, empty statements: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	if v.Init != nil {
		b.add(v.Init)
	}
	b.add(v.Cond)
	condBlock := b.cur
	thenBlock := b.startBlock()
	if condBlock != nil {
		b.rawEdge(condBlock, thenBlock)
	}
	b.stmtList(v.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := v.Else != nil
	if hasElse {
		elseBlock := b.startBlock()
		if condBlock != nil {
			b.rawEdge(condBlock, elseBlock)
		}
		b.stmt(v.Else)
		elseEnd = b.cur
	}

	after := b.newBlock()
	if thenEnd != nil {
		b.rawEdge(thenEnd, after)
	}
	if hasElse {
		if elseEnd != nil {
			b.rawEdge(elseEnd, after)
		}
	} else if condBlock != nil {
		b.rawEdge(condBlock, after)
	}
	b.cur = after
}

func (b *cfgBuilder) pushLoop(continueTo *Block) *loopCtx {
	ctx := &loopCtx{label: b.pendingLabel, continueTo: continueTo, isLoop: true}
	b.pendingLabel = ""
	b.stack = append(b.stack, ctx)
	return ctx
}

func (b *cfgBuilder) pushSwitch() *loopCtx {
	ctx := &loopCtx{label: b.pendingLabel}
	b.pendingLabel = ""
	b.stack = append(b.stack, ctx)
	return ctx
}

func (b *cfgBuilder) pop(ctx *loopCtx, after *Block) {
	b.stack = b.stack[:len(b.stack)-1]
	for _, from := range ctx.breakEdges {
		b.rawEdge(from, after)
	}
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt) {
	if v.Init != nil {
		b.add(v.Init)
	}
	header := b.newBlock()
	b.edgeTo(header)
	b.cur = header
	if v.Cond != nil {
		b.add(v.Cond)
	}
	headerEnd := b.cur

	post := b.newBlock()
	ctx := b.pushLoop(post)

	body := b.startBlock()
	if headerEnd != nil {
		b.rawEdge(headerEnd, body)
	}
	b.stmtList(v.Body.List)
	b.edgeTo(post)
	b.cur = post
	if v.Post != nil {
		b.add(v.Post)
	}
	b.rawEdge(b.cur, header)

	after := b.newBlock()
	if v.Cond != nil && headerEnd != nil {
		b.rawEdge(headerEnd, after)
	}
	b.pop(ctx, after)
	b.cur = after
	if v.Cond == nil && len(after.Preds) == 0 {
		// for{} with no breaks: code after is unreachable; keep the
		// block so later statements have a home.
		b.cur = after
	}
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt) {
	header := b.newBlock()
	b.edgeTo(header)
	b.cur = header
	b.add(v) // the range header: evaluates X, binds key/value
	ctx := b.pushLoop(header)

	body := b.startBlock()
	b.rawEdge(header, body)
	b.stmtList(v.Body.List)
	b.edgeTo(header)

	after := b.newBlock()
	b.rawEdge(header, after)
	b.pop(ctx, after)
	b.cur = after
}

func (b *cfgBuilder) switchStmt(v *ast.SwitchStmt) {
	if v.Init != nil {
		b.add(v.Init)
	}
	if v.Tag != nil {
		b.add(v.Tag)
	}
	header := b.cur
	if header == nil {
		header = b.startBlock()
	}
	ctx := b.pushSwitch()
	b.caseClauses(header, v.Body.List, hasDefaultClause(v.Body.List), ctx)
}

func (b *cfgBuilder) typeSwitchStmt(v *ast.TypeSwitchStmt) {
	if v.Init != nil {
		b.add(v.Init)
	}
	b.add(v.Assign)
	header := b.cur
	if header == nil {
		header = b.startBlock()
	}
	ctx := b.pushSwitch()
	b.caseClauses(header, v.Body.List, hasDefaultClause(v.Body.List), ctx)
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// caseClauses wires switch/type-switch clause bodies: each is entered
// from the header; fallthrough chains to the next clause body.
func (b *cfgBuilder) caseClauses(header *Block, clauses []ast.Stmt, hasDefault bool, ctx *loopCtx) {
	after := b.newBlock()
	var prevFallthrough *Block
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clause := b.startBlock()
		b.rawEdge(header, clause)
		if prevFallthrough != nil {
			b.rawEdge(prevFallthrough, clause)
			prevFallthrough = nil
		}
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for i, s := range cc.Body {
			if br, isBr := s.(*ast.BranchStmt); isBr && br.Tok == token.FALLTHROUGH && i == len(cc.Body)-1 {
				fellThrough = true
				break
			}
			b.stmt(s)
		}
		if fellThrough && b.cur != nil {
			prevFallthrough = b.cur
			b.cur = nil
			continue
		}
		b.edgeTo(after)
	}
	if !hasDefault {
		b.rawEdge(header, after)
	}
	b.pop(ctx, after)
	b.cur = after
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt) {
	header := b.cur
	if header == nil {
		header = b.startBlock()
	}
	b.add(v) // keep the select visible as a node in its header block
	ctx := b.pushSwitch()
	after := b.newBlock()
	for _, c := range v.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		clause := b.startBlock()
		b.rawEdge(header, clause)
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edgeTo(after)
	}
	// A select{} with no cases blocks forever: after stays unreachable.
	b.pop(ctx, after)
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(v *ast.LabeledStmt) {
	head := b.newBlock()
	b.edgeTo(head)
	b.cur = head
	b.labels[v.Label.Name] = &labelBlocks{head: head, stmt: v}
	b.pendingLabel = v.Label.Name
	b.stmt(v.Stmt)
	b.pendingLabel = ""
}

func (b *cfgBuilder) branchStmt(v *ast.BranchStmt) {
	if b.cur == nil {
		return
	}
	b.add(v)
	switch v.Tok {
	case token.BREAK:
		for i := len(b.stack) - 1; i >= 0; i-- {
			ctx := b.stack[i]
			if v.Label == nil || ctx.label == v.Label.Name {
				ctx.breakEdges = append(ctx.breakEdges, b.cur)
				break
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.stack) - 1; i >= 0; i-- {
			ctx := b.stack[i]
			if !ctx.isLoop {
				continue
			}
			if v.Label == nil || ctx.label == v.Label.Name {
				b.rawEdge(b.cur, ctx.continueTo)
				break
			}
		}
		b.cur = nil
	case token.GOTO:
		if v.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: v.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by caseClauses; a stray fallthrough is a compile
		// error anyway.
	}
}

// isTerminatingCall reports whether x is a call that never returns:
// panic(...) or os.Exit(...).
func isTerminatingCall(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return (id.Name == "os" && fun.Sel.Name == "Exit") ||
				(id.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"))
		}
	}
	return false
}

// FuncNodes returns every function body in f — declarations and
// literals alike. Analyzers build one CFG per returned node.
func FuncNodes(f *ast.File) []ast.Node {
	var fns []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fns = append(fns, n)
		}
		return true
	})
	return fns
}

// WalkBlockNode visits the expressions and statements a block node
// executes itself, pruning subtrees that live in other basic blocks or
// other functions: range bodies, select clauses, and function-literal
// bodies. Analyzers iterating Block.Nodes use it to avoid double
// visiting (the pruned subtrees appear in their own blocks) and to keep
// deferred/goroutine bodies out of straight-line reasoning.
func WalkBlockNode(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		switch v := m.(type) {
		case *ast.RangeStmt:
			// Only the range header executes here: X and the key/value
			// targets; the body has its own blocks.
			if fn(m) {
				if v.Key != nil {
					WalkBlockNode(v.Key, fn)
				}
				if v.Value != nil {
					WalkBlockNode(v.Value, fn)
				}
				WalkBlockNode(v.X, fn)
			}
			return false
		case *ast.SelectStmt:
			// Clause comms and bodies live in their own blocks.
			fn(m)
			return false
		case *ast.FuncLit:
			// Runs when called, not where it is written.
			fn(m)
			return false
		}
		return fn(m)
	})
}
