package lint

import "testing"

// FuzzParseDirective fuzzes the //esselint:allow[file] directive
// grammar. The invariant is canonical-form idempotence: any accepted
// directive must re-render and re-parse to exactly the same canonical
// string, so the audit tooling can rewrite directives without changing
// their meaning. The retired fsm and unit kinds stay in the corpus as
// inputs that must now be rejected like any other unknown kind.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//esselint:allow maporder iteration order is sorted below",
		"//esselint:allow all generated file",
		"//esselint:allowfile rngdet fixture exercises raw rand",
		"//esselint:allow  divguard   extra   spacing",
		"//esselint:allow",
		"//esselint:allowfile",
		"//esselint:allow\tfloatcmp\ttab separated",
		"//esselint:allow errdrop trailing space ",
		"//esselint:allow errdrop reason with // a nested comment",
		"//esselint:allow hotalloc reason — with unicode ρ",
		"//esselint:allow\u00a0floatcmp no-break space is not a separator",
		"//esselint:allowfile all",
		"//esselint:allowfilefloatcmp run-on kind",
		"//esselint:allows trap",
		"//esselint: allow floatcmp space after the colon",
		"// esselint:allow floatcmp space before the prefix",
		"//esselint:ALLOW floatcmp kinds are case-sensitive",
		"//esselint:fsm A->B, B->A",
		"//esselint:unit t=degC s=psu return=kg/m^3",
		"//esselint:nonsense payload",
		"// not a directive",
		"//esselint:",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		canon, ok := ParseDirective(text)
		if !ok {
			if canon != "" {
				t.Fatalf("rejected input %q returned non-empty canonical form %q", text, canon)
			}
			return
		}
		again, ok2 := ParseDirective(canon)
		if !ok2 {
			t.Fatalf("canonical form %q of %q does not re-parse", canon, text)
		}
		if again != canon {
			t.Fatalf("canonicalization is not a fixpoint: %q -> %q -> %q", text, canon, again)
		}
	})
}
