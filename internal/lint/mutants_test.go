package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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

// mutantTree is the non-test tree under internal/ and cmd/, listed and
// type-checked once; each mutant re-checks only the package it edits.
type mutantTree struct {
	root  string // module root directory
	fset  *token.FileSet
	imp   types.Importer
	metas map[string]listPkg  // by directory
	pkgs  map[string]*Package // unmutated, by import path
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
		pkgs:  map[string]*Package{},
		base:  map[string][]string{},
	}
	mt.imp = newExportImporter(mt.fset, exports)
	for _, m := range metas {
		if underTestdata(m.ImportPath) {
			continue
		}
		p, err := checkPackage(mt.fset, mt.imp, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mt.metas[m.Dir] = m
		mt.pkgs[m.ImportPath] = p
	}
	return mt
}

// closure adds path and every tree package it imports, transitively,
// to set.
func (mt *mutantTree) closure(set map[string]*Package, p *Package) {
	if set[p.Path] != nil {
		return
	}
	set[p.Path] = p
	for _, imp := range p.Pkg.Imports() {
		if dep := mt.pkgs[imp.Path()]; dep != nil {
			mt.closure(set, dep)
		}
	}
}

// findings runs the whole suite over package p against the program of
// set and renders each unsuppressed finding as "analyzer file:
// message", positions dropped so an edit that shifts lines does not
// make an old finding look new.
func (mt *mutantTree) findings(set map[string]*Package, p *Package) ([]string, error) {
	pkgs := make([]*Package, 0, len(set))
	for _, p := range set {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	diags, _, err := runPasses(BuildProgram(pkgs), []*Package{p}, Analyzers())
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
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
// as it stands, each analyzed against the program of the same partial
// set (which can report what the whole tree does not).
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

	set := map[string]*Package{}
	mt.closure(set, mt.pkgs[meta.ImportPath])
	before, ok := mt.base[meta.ImportPath]
	if !ok {
		if before, err = mt.findings(set, mt.pkgs[meta.ImportPath]); err != nil {
			return nil, err
		}
		mt.base[meta.ImportPath] = before
	}
	set[meta.ImportPath] = mutated
	after, err := mt.findings(set, mutated)
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
// the suite needs two rows and one that only it catches — lockheld
// excepted, which stays as the held-lock dataflow sharedguard replays.
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
		if !unique[a.Name] && a != LockHeld {
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
		rule: "rngdeterminism", file: "cmd/mtc-sim/main.go",
		why: "the simulator seeds from the wall clock",
		old: "cfg.Seed = *seed",
		new: "cfg.Seed = uint64(time.Now().UnixNano())",
	},
	{
		rule: "rngdeterminism", file: "internal/sched/sched.go",
		why: "failure times drawn from math/rand's global source",
		old: "dur *= random.Float64() // dies partway through",
		new: "dur *= rand.Float64() // dies partway through",
		imp: "math/rand",
	},
	{
		rule: "errdrop", file: "internal/covstore/covstore.go",
		why: "a failed Close (ENOSPC at flush) is published as a good snapshot",
		old: `	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("covstore: %w", err)
	}
	// Atomic publish`,
		new: `	f.Close()
	// Atomic publish`,
	},
	{
		rule: "errdrop", file: "internal/jobdir/jobdir.go",
		why: "Complete blanks a failed rename",
		old: `	if err := os.Rename(tmp, t.statusPath(index)); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cCompletes.Inc()`,
		new: `	_ = os.Rename(tmp, t.statusPath(index))
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
		rule: "goroutineleak", file: "internal/taskpool/taskpool.go",
		why: "a validation added below the worker spawn returns without draining results",
		old: "\tpending := make(map[int]R)",
		new: `	if p.Commit == nil {
		return 0, errors.New("taskpool: no Commit")
	}
	pending := make(map[int]R)`,
		imp: "errors",
	},
	{
		rule: "goroutineleak", file: "internal/telemetry/serve.go",
		why: "unbuffered errc: the server goroutine blocks forever after a ctx shutdown",
		old: `	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		// Buffered send with a default: if Serve already returned
		// through ctx.Done, nobody drains errc and the goroutine must
		// still exit.
		select {
		case errc <- err:
		default:
		}
	}()`,
		new: `	errc := make(chan error)
	go func() {
		errc <- srv.ListenAndServe()
	}()`,
		also: []string{"ctxflow"},
	},
	{
		rule: "maporder", file: "internal/remote/mycluster.go",
		why: "sorted the names, still ranges over the map (the PR 3 bug)",
		old: `	for _, name := range names {
		count := instances[name]`,
		new: "\tfor name, count := range instances {",
	},
	{
		rule: "maporder", file: "internal/opendap/opendap.go",
		why: "handleList sorts the names before it collects them, so the list is served in map order",
		old: `	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	s.mu.RUnlock()
	cList.Inc()
	sort.Strings(names)
`,
		new: `	names := make([]string, 0, len(s.datasets))
	sort.Strings(names)
	for n := range s.datasets {
		names = append(names, n)
	}
	s.mu.RUnlock()
	cList.Inc()
`,
		dyn: "TestDatasetListing (about 4 runs in 5)",
	},
	{
		rule: "lockheld", file: "internal/covstore/covstore.go",
		why: "publish retries the rename after a pause, still holding the store lock",
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
		why: "ReadSafe waits for a first publish under the lock WriteSnapshot needs to make it",
		old: `	s.mu.Lock()
	cReads := s.cReads
	s.mu.Unlock()
	cReads.Inc()
	f, err := os.Open(s.safePath())
	if err != nil {`,
		new: `	s.mu.Lock()
	defer s.mu.Unlock()
	s.cReads.Inc()
	if s.version == 0 {
		time.Sleep(50 * time.Millisecond) // nothing published yet: give a writer a moment
	}
	f, err := os.Open(s.safePath())
	if err != nil {`,
	},
	{
		rule: "slogkv", file: "cmd/esse-report/main.go",
		why: "a value without its key: !BADKEY at run time",
		old: `lg.Error("creating digest file failed", "path", *out, "err", err.Error())`,
		new: `lg.Error("creating digest file failed", "path", *out, err.Error())`,
	},
	{
		rule: "slogkv", file: "cmd/esse-report/main.go",
		why: "duplicate key hides the error",
		old: `lg.Error("loading trace failed", "src", src, "err", err.Error())`,
		new: `lg.Error("loading trace failed", "src", src, "src", err.Error())`,
	},
	{
		rule: "sharedguard", file: "internal/covstore/covstore.go",
		why: "ReadSafe reads the counter Instrument writes under mu (the PR 6 bug)",
		old: `	s.mu.Lock()
	cReads := s.cReads
	s.mu.Unlock()
	cReads.Inc()`,
		new: "\ts.cReads.Inc()",
	},
	{
		rule: "sharedguard", file: "internal/core/accumulator.go",
		why: "Len reads the columns without the mutex Add appends them under",
		old: `func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cols)
}`,
		new: `func (a *Accumulator) Len() int {
	return len(a.cols)
}`,
		dyn: "race (TestAccumulatorConcurrentAdds)",
	},
	{
		rule: "sharedguard", file: "internal/telemetry/events.go",
		why: "Total reads the event count without the mutex Emit advances it under",
		old: `	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}`,
		new: `	return l.next
}`,
	},
	{
		rule: "ctxflow", file: "internal/taskpool/taskpool.go",
		why: "the dispatcher waits for a free worker or a Grow without watching ctx",
		old: `			case <-p.grown:
			case <-ctx.Done():
				return
			case <-p.stopped:`,
		new: `			case <-p.grown:
			case <-p.stopped:`,
		dyn: "TestPropagateSubspaceCancelledMidRun, TestFailedCommitDrainsTheWorkers, TestFailedSVDStageDrainsTheWorkers (hang)",
	},
	{
		rule: "ctxflow", file: "internal/opendap/opendap.go",
		why: "DatasetsCtx drops its context",
		old: `resp, err := c.get(ctx, c.Base+"/datasets")`,
		new: `resp, err := c.get(context.Background(), c.Base+"/datasets")`,
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
		rule: "httpguard", file: "cmd/promscrape/main.go",
		why: "scrapeOnce never closes the response body",
		old: `	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {`,
		new: "\tif resp.StatusCode != http.StatusOK {",
	},
	{
		rule: "httpguard", file: "internal/telemetry/serve.go",
		why: "NewServer drops ReadHeaderTimeout (slowloris)",
		old: `		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,`,
		new: "\t\tHandler:           h,",
	},
	{
		rule: "httpguard", file: "internal/opendap/opendap.go",
		why: "DatasetsCtx parses the body without checking the status",
		old: `	defer resp.Body.Close() //esselint:allow errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("opendap: listing failed: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)`,
		new: `	defer resp.Body.Close() //esselint:allow errdrop read-only response body
	body, err := io.ReadAll(resp.Body)`,
		dyn: "TestDatasetsNon200",
	},
	{
		rule: "exhaustenum", file: "internal/telemetry/registry.go",
		why: "a metric kind added later: the switches drop it silently",
		old: `	kindHistogram
)`,
		new: `	kindHistogram
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
			buf = appendSample(buf, fam.name, "", s.labels, "", s.g.Value())
`,
		new: "",
		dyn: "TestLabelValueEscaping",
	},
	{
		rule: "resleak", file: "internal/covstore/covstore.go",
		why: "ReadSafe never closes the safe file",
		old: `	//esselint:allow errdrop read-only file; Close cannot lose data
	defer f.Close()
	return readSnapshot(f)`,
		new: "\treturn readSnapshot(f)",
	},
	{
		rule: "resleak", file: "internal/telemetry/runtime.go",
		why: "the runtime sampler never stops its ticker",
		old: `	tick := time.NewTicker(s.interval)
	defer tick.Stop()`,
		new: "\ttick := time.NewTicker(s.interval)",
	},
	{
		rule: "retrybudget", file: "cmd/promscrape/main.go",
		why: "the scrape retries without backing off",
		old: `		if attempt > 0 {
			time.Sleep(wait)
		}
`,
		new: "",
	},
	{
		rule: "retrybudget", file: "cmd/promscrape/main.go",
		why: "the scrape retries for ever",
		old: "for attempt := 0; attempt < retries; attempt++ {",
		new: "for attempt := 0; ; attempt++ {",
		dyn: "vet (unreachable code)",
	},
}
