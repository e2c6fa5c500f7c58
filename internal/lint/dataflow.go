package lint

// This file implements the forward-dataflow fixpoint solver lockheld
// runs over the CFG. An analysis supplies a lattice (Top, Meet, Equal),
// a boundary fact for function entry and a block transfer function.
// The solver iterates a worklist to a fixpoint; analyses must be
// monotone with finite-height lattices for termination, and a generous
// iteration cap turns any violation into a sound over-approximation
// rather than a hang.

// Fact is one dataflow fact; its concrete type is private to each
// analysis.
type Fact any

// FlowAnalysis defines a forward dataflow problem over a CFG.
type FlowAnalysis interface {
	// Boundary is the fact at function entry.
	Boundary() Fact
	// Top is the identity of Meet — the fact of an unreached block.
	Top() Fact
	// Transfer pushes a fact through the statements of b.
	Transfer(b *Block, in Fact) Fact
	// Meet combines facts at a join point.
	Meet(a, b Fact) Fact
	// Equal reports whether two facts are identical (fixpoint test).
	Equal(a, b Fact) bool
}

// FlowResult carries the solved facts: In[b] is the fact at the entry
// of block b, Out[b] after its transfer.
type FlowResult struct {
	In, Out map[*Block]Fact
}

// Forward solves the analysis over cfg and returns the per-block facts.
func Forward(cfg *CFG, an FlowAnalysis) *FlowResult {
	res := &FlowResult{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	for _, b := range cfg.Blocks {
		res.In[b] = an.Top()
		res.Out[b] = an.Top()
	}
	res.In[cfg.Entry] = an.Boundary()
	res.Out[cfg.Entry] = an.Transfer(cfg.Entry, an.Boundary())

	work := make([]*Block, 0, len(cfg.Blocks))
	queued := make([]bool, len(cfg.Blocks))
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}
	// Seed every block (in creation order, which approximates program
	// order): transfer functions may generate facts mid-graph, not just
	// at the boundary.
	for _, b := range cfg.Blocks {
		if b != cfg.Entry {
			push(b)
		}
	}

	// Cap the iteration count: |blocks| * a small lattice-height budget.
	budget := (len(cfg.Blocks) + 1) * 64
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		in := an.Top()
		for _, e := range b.Preds {
			in = an.Meet(in, res.Out[e.From])
		}
		if b == cfg.Entry {
			in = an.Meet(in, an.Boundary())
		}
		out := an.Transfer(b, in)
		res.In[b] = in
		if !an.Equal(out, res.Out[b]) {
			res.Out[b] = out
			for _, e := range b.Succs {
				push(e.To)
			}
		}
	}
	return res
}
