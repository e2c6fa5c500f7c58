// Package lint implements esselint, the static-analysis suite that
// enforces the repository's error-handling, numerical-safety,
// concurrency and enum-coverage invariants. `esselint -list` prints
// the analyzers, all intraprocedural; each has a fixture under
// testdata/ and rows of real-tree mutants in mutants_test.go, the
// evidence it is kept on (DESIGN.md §7). Invariants a test at the seam catches as well —
// seeding, map order, log key lists, goroutine drains, context flow,
// HTTP bounds, retries — are held by those tests instead.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is self-contained: packages are
// enumerated with `go list -deps -export -json` and type-checked with
// go/types against the toolchain's export data, so the suite builds and
// runs offline with no dependencies outside the standard library. If
// x/tools ever lands in the module, each Analyzer here converts
// mechanically.
//
// Findings can be suppressed with directive comments:
//
//	//esselint:allow <analyzer> [reason...]   (same line or line above)
//	//esselint:allowfile <analyzer> [reason]  (anywhere: whole file)
//
// Suppressions should carry a reason; they are the audited escape
// hatch, not a convenience.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Scope, when non-nil, restricts the analyzer to packages whose
	// module-relative import path it accepts ("." is the module root).
	Scope func(relPath string) bool
	// Run reports diagnostics through the pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path; RelPath is module-relative.
	Path, RelPath string
	// Files holds the type-checked non-test files of the package.
	Files []*ast.File
	// TestFiles holds the package's test files, parsed but NOT
	// type-checked (Info has no entries for them). Only purely
	// syntactic analyzers may inspect them.
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings matched by an //esselint:allow[file]
	// directive; they fail no run.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzers returns the full esselint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ErrDrop, FloatCmp, AtomicMix,
		LockHeld, ExhaustEnum,
	}
}

// AnalyzerStats is one analyzer's cost over a run, accumulated across
// packages.
type AnalyzerStats struct {
	Name       string
	Wall       time.Duration
	Findings   int
	Suppressed int
}

// RunAnalyzers applies each analyzer to each in-scope package. It
// returns every diagnostic in file/position order, those an
// //esselint:allow[file] directive matches marked Suppressed (the
// audit and -json show them), and each analyzer's wall time and counts.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStats, error) {
	stats := make([]AnalyzerStats, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := CollectDirectives([]*Package{pkg})
		for i, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.RelPath) {
				continue
			}
			acc := &stats[i]
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Path:      pkg.Path,
				RelPath:   pkg.RelPath,
				Files:     pkg.Files,
				TestFiles: pkg.TestFiles,
				Pkg:       pkg.Pkg,
				Info:      pkg.Info,
				report: func(d Diagnostic) {
					d.Suppressed = slices.ContainsFunc(dirs, func(dir Directive) bool { return covers(dir, d) })
					if d.Suppressed {
						acc.Suppressed++
					} else {
						acc.Findings++
					}
					diags = append(diags, d)
				},
			}
			t0 := time.Now()
			err := a.Run(pass)
			acc.Wall += time.Since(t0)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, stats, nil
}

// underInternalOrCmd scopes an analyzer to internal/ and cmd/ packages.
func underInternalOrCmd(rel string) bool {
	return rel == "internal" || rel == "cmd" ||
		strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
}

// underInternal scopes an analyzer to internal/ packages.
func underInternal(rel string) bool {
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// staticCallee resolves the *types.Func a call statically dispatches
// to: a named function (possibly package-qualified) or a method.
// Calls of function values, built-ins and conversions return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
