package lint

import "testing"

func TestRngDeterminismFixture(t *testing.T) {
	RunFixture(t, RngDeterminism, "rngdet")
}

func TestErrDropFixture(t *testing.T) {
	RunFixture(t, ErrDrop, "errdrop")
}

func TestDivGuardFixture(t *testing.T) {
	RunFixture(t, DivGuard, "divguard")
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

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, HotAlloc, "hotalloc")
}

func TestPreallocateFixture(t *testing.T) {
	RunFixture(t, Preallocate, "preallocate")
}

func TestBoxingFixture(t *testing.T) {
	RunFixture(t, Boxing, "boxing")
}

func TestSlogKVFixture(t *testing.T) {
	RunFixture(t, SlogKV, "slogkv")
}

// TestDivGuardSummaryFixture drives divguard over call sites whose
// safety only the interprocedural numeric summaries can prove (or
// refuse to prove).
func TestDivGuardSummaryFixture(t *testing.T) {
	RunFixture(t, DivGuard, "divguardsum")
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

func TestJSONWireFixture(t *testing.T) {
	RunFixture(t, JSONWire, "jsonwire")
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

// TestScopes pins the path filters: rngdeterminism, errdrop and
// divguard are scoped gates of their own; the interprocedural analyzers
// gate everything under internal/ and cmd/, including the lint suite
// itself (the lint-self target), and nothing under examples/.
func TestScopes(t *testing.T) {
	cases := []struct {
		rel      string
		rngdet   bool
		errdrop  bool
		divguard bool
	}{
		{"internal/workflow", true, true, false},
		{"internal/linalg", true, true, true},
		{"internal/ocean", true, true, true},
		{"cmd/esse-forecast", true, false, false},
		{"examples/quickstart", false, false, false},
		{".", false, false, false},
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
		if got := DivGuard.Scope(c.rel); got != c.divguard {
			t.Errorf("divguard scope(%q) = %v, want %v", c.rel, got, c.divguard)
		}
	}
}

// TestLoadSkipsTestdata pins the loader guard: fixture packages under
// testdata/ are deliberately broken code and must never be analysis
// targets, whatever `go list` pattern semantics do.
func TestLoadSkipsTestdata(t *testing.T) {
	for _, path := range []string{
		"esse/internal/lint/testdata/src/divguard",
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
