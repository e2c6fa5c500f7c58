package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDirectivePlacement asserts the three placement forms all
// suppress: same line, line above, and allowfile on the last line of a
// file. The fixture has three floatcmp violations and zero want
// comments, so any surviving diagnostic fails the run.
func TestDirectivePlacement(t *testing.T) {
	RunFixture(t, FloatCmp, "directives")
}

// TestRunAnalyzersKeepsSuppressed pins the -json and audit contract:
// a run returns the suppressed findings, marked, and counts them apart
// from the findings that fail it.
func TestRunAnalyzersKeepsSuppressed(t *testing.T) {
	pkg, err := LoadDir(".", filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	unscoped := *FloatCmp
	unscoped.Scope = nil
	all, stats, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{&unscoped})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d diagnostics, want 3 (all suppressed)", len(all))
	}
	for _, d := range all {
		if !d.Suppressed {
			t.Errorf("diagnostic not marked suppressed: %s", d)
		}
	}
	if s := stats[0]; s.Findings != 0 || s.Suppressed != 3 {
		t.Fatalf("stats: %d findings, %d suppressed, want 0 and 3", s.Findings, s.Suppressed)
	}
}

// TestCollectDirectives checks parsing of kind, analyzer and reason,
// including the allowfile directive sitting on a file's last line.
func TestCollectDirectives(t *testing.T) {
	pkg, err := LoadDir(".", filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := CollectDirectives([]*Package{pkg})
	if len(dirs) != 3 {
		t.Fatalf("got %d directives, want 3: %v", len(dirs), dirs)
	}
	kinds := map[string]int{}
	for _, d := range dirs {
		kinds[d.Kind]++
		if d.Analyzer != "floatcmp" {
			t.Errorf("%s: analyzer = %q, want floatcmp", d.Pos, d.Analyzer)
		}
		if !strings.Contains(d.Reason, "suppression") && !strings.Contains(d.Reason, "last line") {
			t.Errorf("%s: reason %q not parsed", d.Pos, d.Reason)
		}
	}
	if kinds["allow"] != 2 || kinds["allowfile"] != 1 {
		t.Errorf("kind counts = %v, want 2 allow + 1 allowfile", kinds)
	}
}

// TestAuditDirectives covers the audit failure modes: a misspelled
// analyzer name, a missing reason, and a directive with no analyzer
// token at all.
func TestAuditDirectives(t *testing.T) {
	dirs := []Directive{
		{Kind: "allow", Analyzer: "floatcmp", Reason: "deliberate exact comparison"},
		{Kind: "allow", Analyzer: "all", Reason: "blanket, but reasoned"},
		{Kind: "allow", Analyzer: "flaotcmp", Reason: "typo in the name"},
		{Kind: "allow", Analyzer: "lockheld"},
		{Kind: "allowfile"},
	}
	problems := AuditDirectives(dirs, Analyzers())
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	wantSubstr := []string{"unknown analyzer", "no reason", "names no analyzer"}
	for _, sub := range wantSubstr {
		found := false
		for _, p := range problems {
			if strings.Contains(p, sub) {
				found = true
			}
		}
		if !found {
			t.Errorf("no audit problem mentions %q:\n%s", sub, strings.Join(problems, "\n"))
		}
	}
}
