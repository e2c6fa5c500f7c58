package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func buildTestCFG(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return BuildCFG(fd)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// checkWellFormed asserts edge symmetry and block membership.
func checkWellFormed(t *testing.T, cfg *CFG) {
	t.Helper()
	inBlocks := map[*Block]bool{}
	for _, b := range cfg.Blocks {
		inBlocks[b] = true
	}
	if !inBlocks[cfg.Entry] || !inBlocks[cfg.Exit] {
		t.Fatal("entry/exit not in Blocks")
	}
	for _, b := range cfg.Blocks {
		for _, e := range b.Succs {
			if e.From != b || !inBlocks[e.To] {
				t.Fatalf("bad succ edge on block %d", b.Index)
			}
			found := false
			for _, p := range e.To.Preds {
				if p == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Preds", e.From.Index, e.To.Index)
			}
		}
	}
}

func TestCFGIfElse(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`)
	checkWellFormed(t, cfg)
	// Both returns must reach Exit.
	if len(cfg.Exit.Preds) != 2 {
		t.Fatalf("Exit has %d preds, want 2", len(cfg.Exit.Preds))
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	checkWellFormed(t, cfg)
	back := false
	for _, b := range cfg.Blocks {
		for _, e := range b.Succs {
			if e.To.Index < b.Index && e.To != cfg.Entry {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("loop produced no back edge")
	}
}

func TestCFGRangeAndBreak(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(xs []int) int {
	for _, x := range xs {
		if x < 0 {
			break
		}
	}
	return len(xs)
}`)
	checkWellFormed(t, cfg)
	if len(cfg.Exit.Preds) == 0 {
		t.Fatal("exit unreachable")
	}
}

func TestCFGSelectAndDefer(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(a, b chan int) int {
	defer close(a)
	select {
	case v := <-a:
		return v
	case <-b:
	}
	return 0
}`)
	checkWellFormed(t, cfg)
	if _, ok := cfg.Entry.Nodes[0].(*ast.DeferStmt); !ok {
		t.Fatalf("entry block starts with %T, want the defer statement", cfg.Entry.Nodes[0])
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(c bool) int {
	if !c {
		panic("bad")
	}
	return 1
}`)
	checkWellFormed(t, cfg)
	// The panic block must be wired to Exit (it terminates the
	// function), and the return also reaches Exit.
	if len(cfg.Exit.Preds) < 2 {
		t.Fatalf("Exit has %d preds, want >= 2 (panic and return)", len(cfg.Exit.Preds))
	}
}

func TestCFGLabeledContinue(t *testing.T) {
	cfg := buildTestCFG(t, `
func f(m [][]int) int {
	s := 0
outer:
	for i := range m {
		for j := range m[i] {
			if m[i][j] == 0 {
				continue outer
			}
			s++
			_ = j
		}
		_ = i
	}
	return s
}`)
	checkWellFormed(t, cfg)
	if len(cfg.Exit.Preds) == 0 {
		t.Fatal("exit unreachable")
	}
}

// TestWalkBlockNodePrunes asserts the pruned walk skips range bodies,
// select clauses and function-literal bodies but still visits the
// pruned node itself.
func TestWalkBlockNodePrunes(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "walk_test_src.go", `package p
func f(xs []int, c chan int) {
	for _, x := range xs {
		inner(x)
	}
	g := func() { litOnly() }
	g()
}
func inner(int) {}
func litOnly()  {}
`, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	var sawRange, sawLit, sawInner, sawLitOnly bool
	WalkBlockNode(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			sawRange = true
		case *ast.FuncLit:
			sawLit = true
		case *ast.Ident:
			if v.Name == "inner" {
				sawInner = true
			}
			if v.Name == "litOnly" {
				sawLitOnly = true
			}
		}
		return true
	})
	if !sawRange || !sawLit {
		t.Errorf("pruned nodes not visited: range=%v lit=%v", sawRange, sawLit)
	}
	if sawInner {
		t.Error("range body was not pruned")
	}
	if sawLitOnly {
		t.Error("function-literal body was not pruned")
	}
}
