package lint

import (
	"go/ast"
	"testing"
)

// markFlow is a toy may-analysis for the solver: the fact is true when
// a call to mark() may have executed with no later call to clear() on
// some path. Meet is OR, Top is false.
type markFlow struct{}

func (markFlow) Boundary() Fact       { return false }
func (markFlow) Top() Fact            { return false }
func (markFlow) Meet(a, b Fact) Fact  { return a.(bool) || b.(bool) }
func (markFlow) Equal(a, b Fact) bool { return a.(bool) == b.(bool) }

func (markFlow) Transfer(b *Block, in Fact) Fact {
	fact := in.(bool)
	for _, n := range b.Nodes {
		WalkBlockNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					switch id.Name {
					case "mark":
						fact = true
					case "clear2":
						fact = false
					}
				}
			}
			return true
		})
	}
	return fact
}

func solveMark(t *testing.T, src string) bool {
	t.Helper()
	cfg := buildTestCFG(t, src)
	res := Forward(cfg, markFlow{})
	leaked, _ := res.In[cfg.Exit].(bool)
	return leaked
}

func TestForwardMayReachExit(t *testing.T) {
	if !solveMark(t, `
func f(c bool) {
	mark()
	if c {
		clear2()
	}
}`) {
		t.Error("mark should reach exit on the branch that skips clear2")
	}
}

func TestForwardAllPathsCleared(t *testing.T) {
	if solveMark(t, `
func f(c bool) {
	mark()
	if c {
		clear2()
	} else {
		clear2()
	}
}`) {
		t.Error("mark cleared on both branches must not reach exit")
	}
}

func TestForwardLoopFixpoint(t *testing.T) {
	// The mark happens inside a loop; whether the loop runs zero times
	// decides nothing — some path carries the mark to exit.
	if !solveMark(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		mark()
	}
}`) {
		t.Error("mark inside loop should may-reach exit")
	}
	// A clear after the loop kills every path.
	if solveMark(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		mark()
	}
	clear2()
}`) {
		t.Error("clear after loop must kill the fact on every path")
	}
}

func TestForwardMidGraphSeed(t *testing.T) {
	// The fact is generated two branches deep — a solver that only
	// seeds entry successors would converge before propagating it.
	if !solveMark(t, `
func f(a, b bool) {
	if a {
		if b {
			mark()
		}
	}
}`) {
		t.Error("nested mark should may-reach exit")
	}
}
