package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// This file implements the suppression audit: every //esselint:allow
// and //esselint:allowfile directive in the tree is an exception to a
// machine-checked invariant, so each one must name a real analyzer and
// carry a human-readable reason. `esselint -audit` lists them and fails
// the build on any that don't.

// Directive is one parsed //esselint:allow[file] comment.
type Directive struct {
	Pos token.Position
	// Kind is "allow" or "allowfile".
	Kind string
	// Analyzer is the named analyzer (or "all"); empty when the
	// directive has no analyzer token at all.
	Analyzer string
	// Reason is the free text after the analyzer name.
	Reason string
}

func (d Directive) String() string {
	s := fmt.Sprintf("%s: //esselint:%s %s", d.Pos, d.Kind, d.Analyzer)
	if d.Reason != "" {
		s += " — " + d.Reason
	}
	return s
}

// CollectDirectives parses every suppression directive in the packages,
// in file/position order.
func CollectDirectives(pkgs []*Package) []Directive {
	var out []Directive
	for _, pkg := range pkgs {
		for _, f := range append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//esselint:")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					kind := fields[0]
					if kind != "allow" && kind != "allowfile" {
						continue
					}
					d := Directive{
						Pos:  pkg.Fset.Position(c.Pos()),
						Kind: kind,
					}
					if len(fields) > 1 {
						d.Analyzer = fields[1]
					}
					if len(fields) > 2 {
						d.Reason = strings.Join(fields[2:], " ")
					}
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// AuditDirectives validates the collected directives against the known
// analyzer names and returns one problem string per bad directive: a
// missing analyzer token, an unknown (misspelled) analyzer name, or a
// missing reason. An empty return means the suppression set is clean.
func AuditDirectives(dirs []Directive, analyzers []*Analyzer) []string {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var problems []string
	for _, d := range dirs {
		switch {
		case d.Analyzer == "":
			problems = append(problems,
				fmt.Sprintf("%s: //esselint:%s names no analyzer", d.Pos, d.Kind))
		case !known[d.Analyzer]:
			problems = append(problems,
				fmt.Sprintf("%s: //esselint:%s names unknown analyzer %q (known: %s)",
					d.Pos, d.Kind, d.Analyzer, knownNames(analyzers)))
		case d.Reason == "":
			problems = append(problems,
				fmt.Sprintf("%s: //esselint:%s %s has no reason; every suppression must say why",
					d.Pos, d.Kind, d.Analyzer))
		}
	}
	return problems
}

func knownNames(analyzers []*Analyzer) string {
	names := make([]string, 0, len(analyzers)+1)
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	names = append(names, "all")
	return strings.Join(names, ", ")
}

// covers reports whether directive d suppresses diagnostic g: an allow
// covers its own line and the line below it, an allowfile its whole
// file, and the analyzer name "all" matches every analyzer.
func covers(d Directive, g Diagnostic) bool {
	if d.Pos.Filename != g.Pos.Filename || (d.Analyzer != "all" && d.Analyzer != g.Analyzer) {
		return false
	}
	return d.Kind == "allowfile" || g.Pos.Line == d.Pos.Line || g.Pos.Line == d.Pos.Line+1
}

// AuditUnusedDirectives cross-checks the directives against an actual
// run: a directive that no longer suppresses any finding is dead weight
// that silently licenses a future regression, so the audit retires it.
// diags are a RunAnalyzers result, suppressed findings included.
// Directives in _test.go files are exempt — several analyzers skip
// test files entirely, so absence of a finding there proves nothing.
func AuditUnusedDirectives(dirs []Directive, diags []Diagnostic) []string {
	var problems []string
	for _, d := range dirs {
		if d.Analyzer == "" || strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		if !slices.ContainsFunc(diags, func(g Diagnostic) bool { return g.Suppressed && covers(d, g) }) {
			problems = append(problems,
				fmt.Sprintf("%s: //esselint:%s %s suppresses no current finding; retire it",
					d.Pos, d.Kind, d.Analyzer))
		}
	}
	return problems
}
