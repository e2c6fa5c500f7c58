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
// file of this module or of bench/ declares. A section whose heading
// ends in "(historical)" keeps dead names on purpose: it is skipped, down
// to the next heading of its level or above.
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, skip := false, 0 // skip: the level of the historical heading skipped, 0 for none
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "```") {
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
			if skip > 0 {
				continue
			}
			for _, name := range cite.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
		}
	}
}
