// Command esse-report is the post-run forensics tool: it merges a
// run's exported observability artifacts — the Chrome trace from
// /trace, the lifecycle log from /events and the metrics exposition
// from /metrics — into a per-cycle digest with phase timing breakdown,
// critical-path extraction, retry/cancel audit and orphan-span
// detection. Inputs are files or http(s) URLs, so it works equally on
// a live telemetry server and on artifacts saved by CI.
//
//	esse-report -trace trace.json -events events.json -metrics metrics.txt
//	esse-report -trace http://localhost:9090/trace -strict
//
// With -strict the exit status is non-zero when the span tree is empty
// or any span's parent chain is broken (orphans) — the causal-
// soundness rule cmd/mtc-sim's telemetry smoke test applies too.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"esse/internal/forensics"
	"esse/internal/telemetry"
)

func main() {
	var (
		traceIn   = flag.String("trace", "", "Chrome trace JSON: file path or http(s) URL (required)")
		eventsIn  = flag.String("events", "", "events page JSON: file path or http(s) URL (optional)")
		metricsIn = flag.String("metrics", "", "Prometheus exposition: file path or http(s) URL (optional)")
		out       = flag.String("out", "", "write the JSON digest to this file ('-' or empty = no JSON, text only)")
		quiet     = flag.Bool("q", false, "suppress the text report")
		strict    = flag.Bool("strict", false, "exit non-zero on an empty span tree or orphan spans")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-fetch timeout for URL inputs")
	)
	flag.Parse()

	lg := telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	if *traceIn == "" {
		lg.Error("missing -trace (file or URL)")
		os.Exit(2)
	}

	tree := loadTrace(lg, *traceIn, *timeout)
	var events *telemetry.EventsPage
	if *eventsIn != "" {
		events = loadEvents(lg, *eventsIn, *timeout)
	}
	var exp *telemetry.Exposition
	if *metricsIn != "" {
		exp = loadMetrics(lg, *metricsIn, *timeout)
	}

	d := forensics.BuildDigest(tree, events, exp)
	if !*quiet {
		fmt.Print(forensics.RenderText(d))
	}
	if *out != "" && *out != "-" {
		var buf bytes.Buffer
		err := forensics.WriteDigest(&buf, d)
		if err == nil {
			err = os.WriteFile(*out, buf.Bytes(), 0o644)
		}
		if err != nil {
			lg.Error("writing digest failed", "path", *out, "err", err.Error())
			os.Exit(1)
		}
	}

	if *strict {
		if d.Spans == 0 {
			lg.Error("strict: span tree is empty")
			os.Exit(1)
		}
		if len(d.Orphans) > 0 {
			lg.Error("strict: orphan spans present", "count", len(d.Orphans))
			os.Exit(1)
		}
	}
}

// slurp reads a file path or an http(s) URL fully into memory. URL
// fetches are bounded by timeout, carry a context deadline, and any
// non-200 answer is an error, not an empty artifact.
func slurp(src string, timeout time.Duration) ([]byte, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		data, err := os.ReadFile(src)
		if err != nil {
			return nil, fmt.Errorf("esse-report: %w", err)
		}
		return data, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
	if err != nil {
		return nil, fmt.Errorf("esse-report: %w", err)
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("esse-report: fetching %s: %w", src, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("esse-report: fetching %s: status %s", src, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("esse-report: reading %s: %w", src, err)
	}
	return data, nil
}

func loadTrace(lg *telemetry.Logger, src string, timeout time.Duration) *forensics.Tree {
	data, err := slurp(src, timeout)
	if err != nil {
		lg.Error("loading trace failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	tree, err := forensics.ParseTrace(bytes.NewReader(data))
	if err != nil {
		lg.Error("parsing trace failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	return tree
}

func loadEvents(lg *telemetry.Logger, src string, timeout time.Duration) *telemetry.EventsPage {
	data, err := slurp(src, timeout)
	if err != nil {
		lg.Error("loading events failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	page, err := telemetry.ParseEvents(bytes.NewReader(data))
	if err != nil {
		lg.Error("parsing events failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	return page
}

func loadMetrics(lg *telemetry.Logger, src string, timeout time.Duration) *telemetry.Exposition {
	data, err := slurp(src, timeout)
	if err != nil {
		lg.Error("loading metrics failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	exp, err := telemetry.ParsePrometheus(bytes.NewReader(data))
	if err != nil {
		lg.Error("parsing metrics failed", "src", src, "err", err.Error())
		os.Exit(1)
	}
	return exp
}
