// Command esselint runs the repository's custom error-handling,
// numerical-safety, atomic, lock and enum analyzers (see esse/internal/lint)
// over the given package patterns and exits non-zero on any finding
// (`go vet` is a separate step of every gate):
//
//	go run ./cmd/esselint ./...
//	go run ./cmd/esselint ./internal/workflow
//	go run ./cmd/esselint -json ./...   # one JSON object per diagnostic
//	go run ./cmd/esselint -audit ./...  # validate //esselint:allow directives
//
// It is the lint stage of scripts/verify.sh and `make verify`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"esse/internal/lint"
)

// jsonDiag is the wire form of one diagnostic in -json mode.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// statsJSON is the artifact form of one run's stats (-stats-json):
// per-analyzer wall times and findings, written as a single JSON object
// so CI can diff analyzer cost across runs.
type statsJSON struct {
	Analyzers []analyzerStatJSON `json:"analyzers"`
}

type analyzerStatJSON struct {
	Name       string `json:"name"`
	WallNs     int64  `json:"wall_ns"`
	Findings   int    `json:"findings"`
	Suppressed int    `json:"suppressed"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic (including suppressed ones) instead of text")
	audit := flag.Bool("audit", false, "list every //esselint:allow[file] directive; exit non-zero on directives with no reason or an unknown analyzer")
	stats := flag.Bool("stats", false, "print per-analyzer wall time and findings to stderr after the run")
	statsJSONPath := flag.String("stats-json", "", "write per-analyzer wall times and findings as a JSON object to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: esselint [flags] [package patterns]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the ESSE error, float, atomic, lock and enum analyzers (default patterns: ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esselint:", err)
		os.Exit(2)
	}

	if *audit {
		os.Exit(runAudit(pkgs, analyzers))
	}

	diags, runStats, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esselint:", err)
		os.Exit(2)
	}
	if *stats {
		printStats(runStats)
	}
	if *statsJSONPath != "" {
		if err := writeStatsJSON(*statsJSONPath, runStats); err != nil {
			fmt.Fprintln(os.Stderr, "esselint:", err)
			os.Exit(2)
		}
	}
	failed := false
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		failed = failed || !d.Suppressed
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonDiag{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "esselint:", err)
				os.Exit(2)
			}
		case !d.Suppressed:
			fmt.Println(d)
		}
	}

	if failed {
		os.Exit(1)
	}
}

// printStats reports where the run spent its time, so analyzer
// slowdowns show up in CI logs instead of silently stretching the
// verify stage.
func printStats(s []lint.AnalyzerStats) {
	for _, a := range s {
		fmt.Fprintf(os.Stderr, "esselint: stats: %-16s %10v  findings=%d suppressed=%d\n",
			a.Name, a.Wall.Round(time.Microsecond), a.Findings, a.Suppressed)
	}
}

// writeStatsJSON writes the run's stats as one JSON object, the CI
// analyzer-cost artifact.
func writeStatsJSON(path string, s []lint.AnalyzerStats) error {
	var out statsJSON
	for _, a := range s {
		out.Analyzers = append(out.Analyzers, analyzerStatJSON{
			Name:       a.Name,
			WallNs:     a.Wall.Nanoseconds(),
			Findings:   a.Findings,
			Suppressed: a.Suppressed,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAudit prints the tree's suppression directives and returns the
// process exit code: 1 if any directive is missing a reason, names an
// unknown analyzer, or no longer suppresses any finding; 0 otherwise.
func runAudit(pkgs []*lint.Package, analyzers []*lint.Analyzer) int {
	dirs := lint.CollectDirectives(pkgs)
	for _, d := range dirs {
		fmt.Println(d)
	}
	problems := lint.AuditDirectives(dirs, analyzers)
	diags, _, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esselint:", err)
		return 2
	}
	problems = append(problems, lint.AuditUnusedDirectives(dirs, diags)...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "esselint: audit:", p)
	}
	fmt.Printf("esselint: audit: %d directive(s), %d problem(s)\n", len(dirs), len(problems))
	if len(problems) > 0 {
		return 1
	}
	return 0
}
