package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A mutant is one edit of a real non-test file of the tree that models
// a bug the named rule exists to catch. The table below is the rent
// roll of the suite (DESIGN §7): a rule stays only while it has a row
// that nothing else — no other rule, not `go vet`, not `-race`, not a
// test — catches.
type mutant struct {
	rule string // the analyzer that must report in the mutated file
	file string // module-relative path of the file
	// old occurs exactly once in file and is replaced by new. imp, when
	// set, is an import the edit needs (what goimports would add).
	old, new, imp string
	why           string
	// also lists the other rules that report the mutant, sorted.
	// Asserted.
	also []string
	// dyn names what else catches the mutant — the compiler-adjacent
	// and dynamic gates, measured on a scratch copy by the procedure in
	// DESIGN §7 and not re-run here: "vet", "race", or the first failing
	// test. Empty with an empty also means only the rule catches it.
	dyn string
}

// only reports whether nothing but the named rule catches the mutant.
func (m mutant) only() bool { return len(m.also) == 0 && m.dyn == "" }

// mutantTree is the non-test tree under internal/ and cmd/, listed
// once; each mutant type-checks only the package it edits, as it
// stands and with the edit.
type mutantTree struct {
	root  string // module root directory
	fset  *token.FileSet
	imp   types.Importer
	metas map[string]listPkg  // by directory
	base  map[string][]string // findings in an unmutated package, by import path
}

func loadMutantTree(t *testing.T) *mutantTree {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The imports the edits add are listed with the tree, so the one
	// `go list` builds their export data too.
	patterns := []string{"./internal/...", "./cmd/..."}
	for _, m := range mutants {
		if m.imp != "" {
			patterns = append(patterns, m.imp)
		}
	}
	metas, exports, err := goList(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	mt := &mutantTree{
		root:  root,
		fset:  token.NewFileSet(),
		metas: map[string]listPkg{},
		base:  map[string][]string{},
	}
	mt.imp = newExportImporter(mt.fset, exports)
	for _, m := range metas {
		if !underTestdata(m.ImportPath) {
			mt.metas[m.Dir] = m
		}
	}
	return mt
}

// findings runs the whole suite over package p and renders each
// unsuppressed finding as "analyzer file: message", positions dropped
// so an edit that shifts lines does not make an old finding look new.
func (mt *mutantTree) findings(p *Package) ([]string, error) {
	diags, _, err := RunAnalyzers([]*Package{p}, Analyzers())
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range unsuppressed(diags) {
		rel, err := filepath.Rel(mt.root, d.Pos.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s %s: %s", d.Analyzer, filepath.ToSlash(rel), d.Message))
	}
	return out, nil
}

// catch applies m in memory and returns the findings the edit adds to
// its package: those of the mutated package minus those of the package
// as it stands.
func (mt *mutantTree) catch(m mutant) ([]string, error) {
	path := filepath.Join(mt.root, filepath.FromSlash(m.file))
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("old text occurs %d times in %s, want exactly once", n, m.file)
	}
	edited := strings.Replace(string(src), m.old, m.new, 1)
	if m.imp != "" {
		// A second import declaration right after the package clause
		// (i is -1 when the clause opens the file).
		i := strings.Index(edited, "\npackage ")
		j := i + 1 + strings.Index(edited[i+1:], "\n")
		edited = edited[:j] + fmt.Sprintf("\nimport %q", m.imp) + edited[j:]
	}

	meta, ok := mt.metas[filepath.Dir(path)]
	if !ok {
		return nil, fmt.Errorf("%s is in no package under internal/ or cmd/", m.file)
	}
	mutated, err := checkPackage(mt.fset, mt.imp, meta, map[string][]byte{path: []byte(edited)})
	if err != nil {
		return nil, fmt.Errorf("the mutant does not compile (the compiler's catch, not a rule's): %w", err)
	}

	before, ok := mt.base[meta.ImportPath]
	if !ok {
		unmutated, err := checkPackage(mt.fset, mt.imp, meta, nil)
		if err != nil {
			return nil, err
		}
		if before, err = mt.findings(unmutated); err != nil {
			return nil, err
		}
		mt.base[meta.ImportPath] = before
	}
	after, err := mt.findings(mutated)
	if err != nil {
		return nil, err
	}
	old := map[string]int{}
	for _, f := range before {
		old[f]++
	}
	var added []string
	for _, f := range after {
		if old[f] > 0 {
			old[f]--
			continue
		}
		added = append(added, f)
	}
	return added, nil
}

// TestRulesCatchRealMutants is the standing form of the evidence each
// rule is kept on. Every row is applied without touching the checkout;
// the named rule must report in the mutated file, and the other rules
// that report must be exactly the ones the row records. Every rule of
// the suite needs two rows and one that only it catches.
func TestRulesCatchRealMutants(t *testing.T) {
	mt := loadMutantTree(t)
	rows := map[string]int{}
	unique := map[string]bool{}
	for _, m := range mutants {
		rows[m.rule]++
		if m.only() {
			unique[m.rule] = true
		}
		added, err := mt.catch(m)
		if err != nil {
			t.Errorf("%s (%s): %v", m.file, m.why, err)
			continue
		}
		caught := false
		others := map[string]bool{}
		for _, f := range added {
			rule, rest, _ := strings.Cut(f, " ")
			switch {
			case rule != m.rule:
				others[rule] = true
			case strings.HasPrefix(rest, m.file+": "):
				caught = true
			}
		}
		if !caught {
			t.Errorf("%s: %s does not report the mutant (%s); it added:\n\t%s",
				m.file, m.rule, m.why, strings.Join(added, "\n\t"))
		}
		if got := sortedKeys(others); strings.Join(got, " ") != strings.Join(m.also, " ") {
			t.Errorf("%s (%s): also reported by %v, the table records %v:\n\t%s",
				m.file, m.why, got, m.also, strings.Join(added, "\n\t"))
		}
	}
	for _, a := range Analyzers() {
		if rows[a.Name] < 2 {
			t.Errorf("%s has %d real-tree mutants, want at least 2", a.Name, rows[a.Name])
		}
		if !unique[a.Name] {
			t.Errorf("%s has no mutant that only it catches: by the policy of DESIGN §7 it is deleted", a.Name)
		}
		delete(rows, a.Name)
	}
	for rule := range rows {
		t.Errorf("the table has rows for %s, which is not in the suite", rule)
	}
}

// mutants is the table. The dyn column was measured at the commit and
// by the procedure DESIGN §7 records; a row added later is measured the
// same way before it is trusted.
var mutants = []mutant{
	{
		rule: "errdrop", file: "internal/covstore/covstore.go",
		why: "a failed Close (ENOSPC at flush) is published as a good snapshot",
		old: `	if cerr := f.Close(); err == nil {
		err = cerr
	}`,
		new: `	f.Close()`,
	},
	{
		rule: "errdrop", file: "internal/jobdir/jobdir.go",
		why: "a status write (Complete or SaveState) blanks a failed rename",
		old: `	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cCompletes.Inc()`,
		new: `	_ = os.Rename(path+".tmp", path)
	t.cCompletes.Inc()`,
	},
	{
		rule: "floatcmp", file: "internal/core/subspace.go",
		why: "convergence decided by exact equality of two computed variances",
		old: `	if vp == 0 && vc == 0 {
		return true
	}`,
		new: `	if vp == vc {
		return true
	}`,
	},
	{
		rule: "floatcmp", file: "internal/linalg/dense.go",
		why: "EqualApprox compares exactly",
		old: "if math.Abs(v-b.Data[i]) > tol {",
		new: "if v != b.Data[i] {",
		dyn: "TestQRReconstruction",
	},
	{
		rule: "lockheld", file: "internal/covstore/covstore.go",
		why: "publish retries the rename after a pause, still holding the store lock",
		imp: "time",
		old: `	if err := os.Rename(live, s.safePath()); err != nil {
		return 0, fmt.Errorf("covstore: publish: %w", err)
	}`,
		new: `	if err := os.Rename(live, s.safePath()); err != nil {
		time.Sleep(50 * time.Millisecond) // a slow NFS server: give it a moment
		if err := os.Rename(live, s.safePath()); err != nil {
			return 0, fmt.Errorf("covstore: publish: %w", err)
		}
	}`,
	},
	{
		rule: "lockheld", file: "internal/covstore/covstore.go",
		why: "a read waits for a first publish under the lock Publish needs to make it",
		imp: "time",
		old: `	b, err := os.ReadFile(s.safePath())
	if err != nil {`,
		new: `	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version == 0 {
		time.Sleep(50 * time.Millisecond) // nothing published yet: give a writer a moment
	}
	b, err := os.ReadFile(s.safePath())
	if err != nil {`,
	},
	{
		rule: "atomicmix", file: "internal/telemetry/logger.go",
		why: "dropped-record count as Store(Load()+1)",
		old: "l.dropped.Add(1)",
		new: "l.dropped.Store(l.dropped.Load() + 1)",
	},
	{
		rule: "atomicmix", file: "internal/telemetry/registry.go",
		why: "Counter.Add as Store(Load()+n)",
		old: "c.v.Add(n)",
		new: "c.v.Store(c.v.Load() + n)",
		dyn: "TestConcurrentUpdatesAndScrapes (about 1 run in 10)",
	},
	{
		rule: "exhaustenum", file: "internal/telemetry/registry.go",
		why: "a metric kind added later: the switches drop it silently",
		old: `	kindGauge
)`,
		new: `	kindGauge
	kindSummary
)`,
	},
	{
		rule: "exhaustenum", file: "internal/sched/sched.go",
		why: "the idle-core invariant case is dropped: a stale event is waved through",
		old: `		case stIdle:
			// Idle cores advance only through tryAssign; an event landing
			// here means the heap holds a stale entry for a core that was
			// since parked — a simulator invariant violation, not a state
			// to wave through silently.
			panic(fmt.Sprintf("sched: lifecycle event for idle core %d at t=%.3f", ci, t))
		}`,
		new: "\t\t}",
	},
	{
		rule: "exhaustenum", file: "internal/telemetry/expose.go",
		why: "gauges vanish from the exposition",
		old: `		case kindGauge:
			buf = appendSample(buf, fam.name, s.labels, s.g.Value())
`,
		new: "",
		dyn: "TestLabelValueEscaping",
	},
}
