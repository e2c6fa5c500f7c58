package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the fixture package under testdata/src/<name>,
// applies the analyzer, and compares its diagnostics against the
// fixture's expectations — the same contract as x/tools analysistest:
//
//	expr // want "substring" "another substring"
//
// Every `want` pattern must be matched (as a regexp) by a diagnostic
// on that line, every diagnostic must be claimed by a `want`, and
// //esselint: directives are honored, so fixtures can also assert that
// the allowlist machinery suppresses findings.
func RunFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(".", dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	// Fixture packages live outside internal//cmd/, so run the analyzer
	// with its path scope lifted; everything else behaves as in
	// production, including directive suppression.
	unscoped := *a
	unscoped.Scope = nil
	all, _, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, name, err)
	}
	diags := unsuppressed(all)

	wants := fixtureWants(t, pkg)
	matched := make([]bool, len(diags))
	for key, subs := range wants {
		for _, sub := range subs {
			re, err := regexp.Compile(sub)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", key, sub, err)
			}
			ok := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				if lineKey(d) == key && re.MatchString(d.Message) {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s: no diagnostic matching %q", key, sub)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// fixtureWants extracts the `// want "..."` expectations, keyed by
// file:line.
func fixtureWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range splitQuoted(m[1]) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b c"` into its quoted tokens.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '"')
		if j < 0 {
			return out
		}
		out = append(out, s[i:i+j+2])
		s = s[i+j+2:]
	}
}

func lineKey(d Diagnostic) string {
	return fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
}

// unsuppressed drops the findings a directive suppresses, leaving
// those that fail a run.
func unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// LoadDir loads the single package rooted at dir (which need not belong
// to the enclosing module — analyzer test fixtures live under
// testdata/). Imports are resolved by asking the go tool, from modDir,
// for export data of everything the fixture files mention.
func LoadDir(modDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading fixture dir: %w", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	imports := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			imports[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var paths []string
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports := map[string]string{}
	if len(paths) > 0 {
		_, exports, err = goList(modDir, paths)
		if err != nil {
			return nil, err
		}
	}
	name := files[0].Name.Name
	pkg := &Package{
		Path:    name,
		RelPath: name,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
	}
	return pkg, typeCheck(pkg, newExportImporter(fset, exports))
}
