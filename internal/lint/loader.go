package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path    string // import path
	RelPath string // module-relative import path ("." = module root)
	Dir     string
	Fset    *token.FileSet
	// Files are the type-checked non-test files; TestFiles are parsed
	// only (test files may import packages we have no export data for).
	Files     []*ast.File
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	DepOnly      bool
	Standard     bool
	ForTest      string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// Load enumerates the packages matching patterns (resolved relative to
// dir, "" = current directory) with the go tool, builds export data for
// their dependencies, and type-checks each matched package from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, m := range metas {
		// Analyzer fixtures under testdata/ are deliberately broken code;
		// exclude them explicitly rather than trusting `go list` pattern
		// semantics to keep doing it for us.
		if underTestdata(m.ImportPath) {
			continue
		}
		p, err := checkPackage(fset, imp, m, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// underTestdata reports whether any element of the slash-separated
// import path is "testdata".
func underTestdata(importPath string) bool {
	for _, seg := range strings.Split(importPath, "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// goList runs `go list -e -deps -export -json` and returns the matched
// (non-dep-only) package metas plus an import-path → export-data map
// covering the whole dependency closure.
func goList(dir string, patterns []string) ([]listPkg, map[string]string, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	exports := map[string]string{}
	var metas []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// ForTest entries are synthesized test variants; skip them as
		// analysis targets (their export data is still collected above).
		if !p.DepOnly && !p.Standard && p.ForTest == "" {
			metas = append(metas, p)
		}
	}
	return metas, exports, nil
}

// newExportImporter returns a go/types importer that resolves every
// import from the export-data files the go tool just built. This works
// fully offline: no module downloads, no source re-checking.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses and type-checks one listed package. A file whose
// path is a key of overlay is parsed from that source instead of from
// disk (the mutation table's way of editing a file without writing it).
func checkPackage(fset *token.FileSet, imp types.Importer, m listPkg, overlay map[string][]byte) (*Package, error) {
	if len(m.CgoFiles) > 0 {
		return nil, fmt.Errorf("lint: %s uses cgo, which esselint does not support", m.ImportPath)
	}
	rel := m.ImportPath
	if m.Module != nil && m.Module.Path != "" {
		switch {
		case rel == m.Module.Path:
			rel = "."
		case strings.HasPrefix(rel, m.Module.Path+"/"):
			rel = rel[len(m.Module.Path)+1:]
		}
	}
	pkg := &Package{Path: m.ImportPath, RelPath: rel, Dir: m.Dir, Fset: fset}
	parse := func(name string) (*ast.File, error) {
		path := filepath.Join(m.Dir, name)
		var src any // nil reads the file; a nil []byte would parse as empty
		if b, ok := overlay[path]; ok {
			src = b
		}
		return parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	}
	for _, name := range m.GoFiles {
		f, err := parse(name)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	for _, name := range append(append([]string{}, m.TestGoFiles...), m.XTestGoFiles...) {
		f, err := parse(name)
		if err != nil {
			return nil, err
		}
		pkg.TestFiles = append(pkg.TestFiles, f)
	}
	return pkg, typeCheck(pkg, imp)
}

// typeCheck fills pkg.Pkg/Info from pkg.Files.
func typeCheck(pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	p, err := conf.Check(pkg.Path, pkg.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Pkg = p
	return nil
}
