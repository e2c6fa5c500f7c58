package esse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowUnlinked lists the functions declared outside _test.go files
// under internal/ that no binary links, each with the tests of another
// package that call it (a _test.go file serves only its own package).
// Keys are symbols below esse/internal/.
var allowUnlinked = map[string]string{
	"core.(*Subspace).Truncate":   "TestEnsembleVsDeterministicPropagation (esse), TestRunParallelRecoversTrueSubspace (workflow)",
	"covstore.(*Store).Dir":       "TestStoreLogHoldsEachMemberOnce (workflow)",
	"covstore.(*Store).Version":   "TestCancelMidBatchCleanShutdown (workflow)",
	"covstore.(*Store).Writes":    "TestFullOperationalStack (esse), TestTripleFileStoreIntegration (workflow)",
	"forensics.(*Tree).RootChain": "TestCausalTraceForensics (esse)",
	"grid.(*StateLayout).NewState": "TestExtractSectionErrors (acoustics), TestFromStatePartialDepthVariable (ncdf), " +
		"TestAddResolvesOffset and TestSampleNoiseStatistics (obs)",
	"jobdir.(*Tracker).Completed": "TestFullOperationalStack (esse)",
	"linalg.(*Dense).MaxAbs": "TestEnsembleTLUncertainty (acoustics), " +
		"TestPropagateSubspaceLinearExact and TestSubspaceFromAnomaliesReconstructsCovariance (core)",
	"linalg.(*Dense).Trace": "TestGreedyBeatsNaiveOnCorrelatedField (adaptive), TestTotalVarianceMatchesTrace (core)",
	"linalg.ScaleInPlace": "TestPerturbStatistics, TestPropagateSubspaceContraction, " +
		"TestSubspaceFromAnomaliesReconstructsCovariance, TestTotalVarianceMatchesTrace and the smoother twin (core)",
	"linalg.OuterAdd":               "TestPerturbStatistics (core)",
	"ncdf.ToState":                  "TestOpenDAPPrestageFlow (esse)",
	"ocean.(*Model).RunParallel":    "TestOceanToAcousticsToCoupledDA (esse)",
	"rng.(*Stream).Intn":            "the property tests (esse), TestSimilarityRangeProperty (core)",
	"telemetry.(*Exposition).Value": "TestOneMux (monitor), TestRunParallelTelemetry (workflow)",
}

// TestUnlinkedFunctions builds every main of the tree (cmd/*,
// examples/* and bench/, a module of its own) with inlining off and
// fails when a function declared outside _test.go files under internal/
// is in none of the binaries and not on allowUnlinked, or when an entry
// of allowUnlinked is linked or gone. Such a function is deleted, moved
// into a _test.go file of its package, or given a production caller.
func TestUnlinkedFunctions(t *testing.T) {
	bin := t.TempDir()
	builds := []*exec.Cmd{
		exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/..."),
		exec.Command("go", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), "."),
	}
	builds[1].Dir = "bench" // a module of its own
	for _, build := range builds {
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", build, err, out)
		}
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	mains, _ := filepath.Glob("cmd/*")
	examples, _ := filepath.Glob("examples/*")
	if want := len(mains) + len(examples) + 1; len(bins) != want {
		t.Fatalf("built %d binaries, want %d", len(bins), want)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// A shape-instantiated generic's name has its type arguments
			// in brackets, spaces included: drop them to match symbol.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[dropTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}

	declared := map[string]bool{}
	allowedLines := 0
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
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sym := symbol(filepath.ToSlash(filepath.Dir(path)), fn)
			declared[sym] = true
			if linked["esse/internal/"+sym] {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			if _, ok := allowUnlinked[sym]; ok {
				allowedLines += lines
				continue
			}
			t.Errorf("%s: %s (%d lines) is in none of the %d binaries: delete it, move it into a _test.go file of its package, "+
				"give it a production caller, or, if a test of another package calls it, add it to allowUnlinked with that test",
				fset.Position(fn.Pos()), sym, lines, len(bins))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for sym := range allowUnlinked {
		switch {
		case !declared[sym]:
			stale = append(stale, sym+" no longer exists")
		case linked["esse/internal/"+sym]:
			stale = append(stale, sym+" is linked now")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("allowUnlinked: %s: drop its entry", s)
	}
	t.Logf("%d allow-listed functions, %d lines, in none of the %d binaries", len(allowUnlinked), allowedLines, len(bins))
}

// symbol is the linker's name for fn below esse/internal/, type
// arguments dropped: <pkg>.F, <pkg>.T.M for a value receiver and
// <pkg>.(*T).M for a pointer receiver, pkg the directory under
// internal/.
func symbol(dir string, fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		switch r := fn.Recv.List[0].Type.(type) {
		case *ast.StarExpr:
			name = "(*" + recvName(r.X) + ")." + name
		default:
			name = recvName(r) + "." + name
		}
	}
	return strings.TrimPrefix(dir, "internal/") + "." + name
}

// recvName is the name of a receiver's type: T of T and of T[P].
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
