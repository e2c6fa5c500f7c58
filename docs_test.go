package esse_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteDeclaredTests fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a TestX, FuzzX or BenchmarkX that no _test.go
// file of this module or of bench/ declares, outside "(historical)"
// sections.
func TestDocsCiteDeclaredTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	eachDocLine(t, func(doc string, n int, line string, _ bool) {
		for _, name := range cite.FindAllString(line, -1) {
			if !declared[name] {
				t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, n, name)
			}
		}
	})
}

// TestDocsCitePaths fails when README.md, DESIGN.md or EXPERIMENTS.md
// cites, in backticks, a repository path that does not exist, written
// from the repository root. A citation is a backticked token without
// spaces that ends in .go, .s, .sh, .md, .json, .yml or .mod, or that
// begins with a top-level entry of the repository and a slash. A
// trailing :line is dropped, and a token with * must match at least
// one file. Tokens that begin with $ or / are not paths, and neither
// are bare suffixes such as _test.go. Fenced blocks and "(historical)"
// sections are skipped.
func TestDocsCitePaths(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	top := map[string]bool{}
	for _, e := range entries {
		top[e.Name()] = true
	}
	span := regexp.MustCompile("`([^`\\s]+)`")
	suffix := regexp.MustCompile(`\.(?:go|s|sh|md|json|yml|mod)$`)
	line := regexp.MustCompile(`:\d+(?:[-–]\d+)?$`)
	eachDocLine(t, func(doc string, n int, text string, fenced bool) {
		if fenced {
			return
		}
		for _, m := range span.FindAllStringSubmatch(text, -1) {
			tok := line.ReplaceAllString(m[1], "")
			first, _, nested := strings.Cut(tok, "/")
			switch {
			case strings.HasPrefix(tok, "$"), strings.HasPrefix(tok, "/"):
				continue
			case !nested && (strings.HasPrefix(tok, "_") || strings.HasPrefix(tok, ".")):
				continue // a bare suffix: _test.go, .s
			case !suffix.MatchString(tok) && !(nested && top[first]):
				continue
			}
			if strings.Contains(tok, "*") {
				if matches, err := filepath.Glob(tok); err != nil || len(matches) == 0 {
					t.Errorf("%s:%d cites %s, which matches no file", doc, n, m[1])
				}
				continue
			}
			if _, err := os.Stat(tok); err != nil {
				t.Errorf("%s:%d cites %s, which does not exist from the repository root", doc, n, m[1])
			}
		}
	})
}

// eachDocLine calls f on every line of README.md, DESIGN.md and
// EXPERIMENTS.md outside a section whose heading ends in
// "(historical)", which keeps dead names on purpose: it is skipped down
// to the next heading of its level or above. n counts from 1; fenced
// is true inside a ``` block and on its fence lines.
func eachDocLine(t *testing.T, f func(doc string, n int, line string, fenced bool)) {
	t.Helper()
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, skip := false, 0 // skip: the level of the historical heading skipped, 0 for none
		for i, line := range strings.Split(string(src), "\n") {
			fence := strings.HasPrefix(line, "```")
			if fence {
				fenced = !fenced
			}
			if level := len(line) - len(strings.TrimLeft(line, "#")); !fenced && level > 0 && strings.HasPrefix(line[level:], " ") {
				if skip == 0 || level <= skip {
					skip = 0
					if strings.HasSuffix(strings.TrimSpace(line), "(historical)") {
						skip = level
					}
				}
			}
			if skip == 0 {
				f(doc, i+1, line, fenced || fence)
			}
		}
	}
}
