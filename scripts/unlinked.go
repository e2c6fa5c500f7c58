//go:build ignore

// unlinked lists the functions under internal/ that no binary links:
// it builds every main of the tree (cmd/*, examples/*, bench/) with
// inlining off, takes `go tool nm` of each, and compares the text
// symbols with every bodied function declaration of the non-test files
// under internal/. What it prints exists for tests only (DESIGN.md,
// "What no binary links"). Report only: the exit status is 0 unless a
// build fails. Run from the root of the checkout:
//
//	go run scripts/unlinked.go
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	log.SetFlags(0)
	tmp, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	mains, _ := filepath.Glob("cmd/*")
	examples, _ := filepath.Glob("examples/*")
	mains = append(append(mains, examples...), "bench")
	linked := map[string]bool{}
	for i, dir := range mains {
		bin := filepath.Join(tmp, fmt.Sprint("bin", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = dir // bench/ is a module of its own: build each main from its directory
		if out, err := build.CombinedOutput(); err != nil {
			log.Fatalf("go build %s: %v\n%s", dir, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			log.Fatalf("go tool nm %s: %v", dir, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[f[2]] = true
			}
		}
	}

	// Function lines per package directory: all of them, and those of
	// the functions no binary links.
	all, unlinked := map[string]int{}, map[string]int{}
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			start := fset.Position(fn.Pos()).Line
			lines := fset.Position(fn.End()).Line - start + 1
			all[pkg] += lines
			if sym := symbol(pkg, fn); !linked[sym] {
				unlinked[pkg] += lines
				fmt.Printf("%s:%d\t%s\t%d\n", path, start, sym, lines)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	pkgs := make([]string, 0, len(unlinked))
	for pkg := range unlinked {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if unlinked[pkgs[i]] != unlinked[pkgs[j]] {
			return unlinked[pkgs[i]] > unlinked[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	total, outsideLint := 0, 0
	for _, pkg := range pkgs {
		fmt.Printf("%-28s %5d of %5d function lines unlinked\n", pkg, unlinked[pkg], all[pkg])
		total += unlinked[pkg]
		if pkg != "internal/lint" {
			outsideLint += unlinked[pkg]
		}
	}
	fmt.Printf("total %d function lines in none of the %d binaries, %d outside internal/lint\n", total, len(mains), outsideLint)
}

// symbol is the linker's name for fn: esse/<pkg>.F, esse/<pkg>.T.M for
// a value receiver and esse/<pkg>.(*T).M for a pointer receiver.
func symbol(pkg string, fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		switch t := fn.Recv.List[0].Type.(type) {
		case *ast.StarExpr:
			name = fmt.Sprintf("(*%s).%s", t.X.(*ast.Ident).Name, name)
		case *ast.Ident:
			name = t.Name + "." + name
		}
	}
	return "esse/" + pkg + "." + name
}
