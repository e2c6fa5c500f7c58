package lint

import "testing"

func TestErrDropFixture(t *testing.T) {
	RunFixture(t, ErrDrop, "errdrop")
}

func TestFloatCmpFixture(t *testing.T) {
	RunFixture(t, FloatCmp, "floatcmp")
}

func TestLockHeldFixture(t *testing.T) {
	RunFixture(t, LockHeld, "lockheld")
}

func TestAtomicMixFixture(t *testing.T) {
	RunFixture(t, AtomicMix, "atomicmix")
}

func TestExhaustEnumFixture(t *testing.T) {
	RunFixture(t, ExhaustEnum, "exhaustenum")
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
	diags, _, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unsuppressed(diags) {
		t.Errorf("unexpected diagnostic on clean package: %s", d)
	}
}

// TestScopes pins the path filters: errdrop gates internal/ alone; the
// other rules gate everything under internal/ and cmd/, including the
// lint suite itself, and nothing under examples/.
func TestScopes(t *testing.T) {
	for _, c := range []struct {
		rel     string
		errdrop bool
	}{
		{"internal/workflow", true},
		{"internal/linalg", true},
		{"cmd/esse-forecast", false},
		{"examples/cloudburst", false},
		{".", false},
	} {
		if got := ErrDrop.Scope(c.rel); got != c.errdrop {
			t.Errorf("errdrop scope(%q) = %v, want %v", c.rel, got, c.errdrop)
		}
	}
	for _, a := range []*Analyzer{FloatCmp, AtomicMix, LockHeld, ExhaustEnum} {
		for _, rel := range []string{"internal/lint", "cmd/esselint", "internal/sched"} {
			if !a.Scope(rel) {
				t.Errorf("%s must cover %q", a.Name, rel)
			}
		}
		if a.Scope("examples/cloudburst") {
			t.Errorf("%s must not cover examples/", a.Name)
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
