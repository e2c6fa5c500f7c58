//go:build ignore

// unlinked lists the functions under internal/ that no binary links:
// it builds every main of the tree (cmd/*, examples/*, bench/) with
// inlining off, takes `go tool nm` of each, and compares the text
// symbols with every bodied function declaration of the non-test files
// under internal/. What it prints exists for tests only (DESIGN.md,
// "What no binary links"). It exits non-zero when a build fails or when
// the lines exceed ceiling. Run from the root of the checkout:
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

// ceiling is the most function lines under internal/ that may go
// unlinked: the count DESIGN.md "What no binary links" accounts for
// line by line. It only ever falls; a change that deletes unlinked
// code lowers it to the new count.
const ceiling = 409

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
			// A shape-instantiated generic's name has its type arguments
			// in brackets, spaces included: drop them to match symbol.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[dropTypeArgs(strings.Join(f[2:], " "))] = true
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
	total := 0
	for _, pkg := range pkgs {
		fmt.Printf("%-28s %5d of %5d function lines unlinked\n", pkg, unlinked[pkg], all[pkg])
		total += unlinked[pkg]
	}
	fmt.Printf("total %d function lines in none of the %d binaries\n", total, len(mains))
	if total > ceiling {
		log.Fatalf("unlinked: %d function lines, above the ceiling of %d: delete the new ones, move them into a _test.go file, or give them a production caller", total, ceiling)
	}
}

// symbol is the linker's name for fn, type arguments dropped:
// esse/<pkg>.F, esse/<pkg>.T.M for a value receiver and
// esse/<pkg>.(*T).M for a pointer receiver.
func symbol(pkg string, fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		switch t := fn.Recv.List[0].Type.(type) {
		case *ast.StarExpr:
			name = fmt.Sprintf("(*%s).%s", recvName(t.X), name)
		default:
			name = recvName(t) + "." + name
		}
	}
	return "esse/" + pkg + "." + name
}

// recvName is the name of a receiver's type, T of T and of T[P].
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name
}

// dropTypeArgs removes every bracketed segment of a symbol name.
func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
