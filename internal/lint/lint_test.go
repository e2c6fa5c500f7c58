package lint

import "testing"

func TestRngDeterminismFixture(t *testing.T) {
	RunFixture(t, RngDeterminism, "rngdet")
}

func TestErrDropFixture(t *testing.T) {
	RunFixture(t, ErrDrop, "errdrop")
}

func TestFloatCmpFixture(t *testing.T) {
	RunFixture(t, FloatCmp, "floatcmp")
}

func TestGoroutineLeakFixture(t *testing.T) {
	RunFixture(t, GoroutineLeak, "goroutineleak")
}

func TestMapOrderFixture(t *testing.T) {
	RunFixture(t, MapOrder, "maporder")
}

func TestLockHeldFixture(t *testing.T) {
	RunFixture(t, LockHeld, "lockheld")
}

func TestSlogKVFixture(t *testing.T) {
	RunFixture(t, SlogKV, "slogkv")
}

func TestSharedGuardFixture(t *testing.T) {
	RunFixture(t, SharedGuard, "sharedguard")
}

func TestCtxFlowFixture(t *testing.T) {
	RunFixture(t, CtxFlow, "ctxflow")
}

func TestAtomicMixFixture(t *testing.T) {
	RunFixture(t, AtomicMix, "atomicmix")
}

func TestHTTPGuardFixture(t *testing.T) {
	RunFixture(t, HTTPGuard, "httpguard")
}

func TestExhaustEnumFixture(t *testing.T) {
	RunFixture(t, ExhaustEnum, "exhaustenum")
}

func TestResleakFixture(t *testing.T) {
	RunFixture(t, ResLeak, "resleak")
}

func TestRetrybudgetFixture(t *testing.T) {
	RunFixture(t, RetryBudget, "retrybudget")
}

// TestLoadRealPackage exercises the go-list/export-data loader against
// a real module package and checks scoping: rng sits under internal/,
// so the whole suite applies and must come back clean.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("", "esse/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, got %d", len(pkgs))
	}
	p := pkgs[0]
	if p.RelPath != "internal/rng" {
		t.Fatalf("RelPath = %q, want internal/rng", p.RelPath)
	}
	if p.Pkg == nil || p.Pkg.Name() != "rng" {
		t.Fatalf("type info missing for %s", p.Path)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on clean package: %s", d)
	}
}

// TestScopes pins the path filters: rngdeterminism and errdrop are
// scoped gates of their own; the interprocedural analyzers
// gate everything under internal/ and cmd/, including the lint suite
// itself (the lint-self target), and nothing under examples/.
func TestScopes(t *testing.T) {
	cases := []struct {
		rel     string
		rngdet  bool
		errdrop bool
	}{
		{"internal/workflow", true, true},
		{"internal/linalg", true, true},
		{"cmd/esse-forecast", true, false},
		{"examples/quickstart", false, false},
		{".", false, false},
	}
	treeWide := []*Analyzer{MapOrder, LockHeld, SharedGuard, CtxFlow, AtomicMix, ResLeak, RetryBudget, SlogKV}
	for _, a := range treeWide {
		for _, rel := range []string{"internal/lint", "cmd/esselint", "internal/sched"} {
			if !a.Scope(rel) {
				t.Errorf("%s must cover %q", a.Name, rel)
			}
		}
		if a.Scope("examples/quickstart") {
			t.Errorf("%s must not cover examples/", a.Name)
		}
	}
	for _, c := range cases {
		if got := RngDeterminism.Scope(c.rel); got != c.rngdet {
			t.Errorf("rngdeterminism scope(%q) = %v, want %v", c.rel, got, c.rngdet)
		}
		if got := ErrDrop.Scope(c.rel); got != c.errdrop {
			t.Errorf("errdrop scope(%q) = %v, want %v", c.rel, got, c.errdrop)
		}
	}
}

// TestLoadSkipsTestdata pins the loader guard: fixture packages under
// testdata/ are deliberately broken code and must never be analysis
// targets, whatever `go list` pattern semantics do.
func TestLoadSkipsTestdata(t *testing.T) {
	for _, path := range []string{
		"esse/internal/lint/testdata/src/floatcmp",
		"a/testdata",
		"testdata/b",
	} {
		if !underTestdata(path) {
			t.Errorf("underTestdata(%q) = false, want true", path)
		}
	}
	if underTestdata("esse/internal/lint") {
		t.Error("underTestdata(esse/internal/lint) = true, want false")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if underTestdata(p.Path) {
			t.Errorf("Load returned testdata package %s", p.Path)
		}
	}
}
