// Command opendap-server publishes simulated ocean model states over the
// OpenDAP-like protocol of internal/opendap — the home-institution data
// server of the paper's Section 5.3.2, from which remote execution hosts
// read shared input files. It can also act as the client, fetching a
// variable hyperslab from a running server.
//
// Server:  opendap-server -listen :8080
// Client:  opendap-server -fetch http://host:8080 -dataset forecast-000 -var T
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"esse/internal/grid"
	"esse/internal/metrics"
	"esse/internal/ncdf"
	"esse/internal/ocean"
	"esse/internal/opendap"
	"esse/internal/rng"
	"esse/internal/telemetry"
)

func main() {
	var (
		listen  = flag.String("listen", ":8080", "server listen address")
		members = flag.Int("members", 3, "forecast members to publish")
		nx      = flag.Int("nx", 16, "grid points east")
		ny      = flag.Int("ny", 16, "grid points north")
		nz      = flag.Int("nz", 4, "vertical levels")
		seed    = flag.Uint64("seed", 1, "random seed")
		telAddr = flag.String("telemetry-addr", "", "serve /metrics, /events, /trace and /debug/pprof on this address (e.g. :9090)")

		fetch   = flag.String("fetch", "", "client mode: base URL of a running server")
		dataset = flag.String("dataset", "forecast-000", "client: dataset name")
		varName = flag.String("var", "T", "client: variable to fetch")
		slab    = flag.String("slab", "", "client: start/count as 'i,j,k:di,dj,dk' (empty = full)")
	)
	flag.Parse()

	// Diagnostics are structured stderr log lines; dataset listings and
	// stats stay on stdout.
	lg := telemetry.NewLogger(os.Stderr, slog.LevelInfo)

	if *fetch != "" {
		runClient(lg, *fetch, *dataset, *varName, *slab)
		return
	}

	// SIGINT/SIGTERM cancel ctx, which drains both HTTP servers
	// gracefully instead of dropping in-flight hyperslab reads.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g := grid.MontereyBay(*nx, *ny, *nz)
	master := rng.New(*seed)
	srv := opendap.NewServer()
	if *telAddr != "" {
		tel := telemetry.New()
		tel.Tracer().SetTraceID(telemetry.DeriveTraceID(*seed))
		srv.Instrument(tel)
		go func() {
			if err := telemetry.Serve(ctx, *telAddr, tel.Handler()); err != nil {
				lg.Error("telemetry server failed", "addr", *telAddr, "err", err.Error())
			}
		}()
		lg.Info("telemetry serving", "url", telemetry.DisplayURL(*telAddr, "/metrics"))
	}
	for m := 0; m < *members; m++ {
		st := master.Split(uint64(m))
		cfg := ocean.DefaultConfig(g)
		cfg.Climo = cfg.Climo.Jitter(st)
		model := ocean.New(cfg, st.Split(1))
		model.Run(20)
		f, err := ncdf.FromState(model.Layout, model.State(nil),
			map[string]string{"member": fmt.Sprint(m), "region": "monterey-bay"})
		if err != nil {
			lg.Error("building dataset failed", "member", m, "err", err.Error())
			os.Exit(1)
		}
		srv.Publish(fmt.Sprintf("forecast-%03d", m), f)
	}
	lg.Info("serving forecast datasets", "members", *members, "addr", *listen,
		"endpoints", "/datasets /dds/{name} /dods/{name}")
	if err := telemetry.Serve(ctx, *listen, srv.Handler()); err != nil {
		lg.Error("server failed", "addr", *listen, "err", err.Error())
		os.Exit(1)
	}
	lg.Info("shutdown complete")
}

func runClient(lg *telemetry.Logger, base, dataset, varName, slab string) {
	c := opendap.NewClient(base)
	names, err := c.Datasets(context.Background())
	if err != nil {
		lg.Error("listing datasets failed", "base", base, "err", err.Error())
		os.Exit(1)
	}
	fmt.Printf("server offers %d datasets: %v\n", len(names), names)
	dds, err := c.DDS(context.Background(), dataset)
	if err != nil {
		lg.Error("DDS fetch failed", "dataset", dataset, "err", err.Error())
		os.Exit(1)
	}
	fmt.Print(dds)

	var start, count []int
	if slab != "" {
		parts := strings.SplitN(slab, ":", 2)
		if len(parts) != 2 {
			lg.Error("bad -slab; want 'i,j,k:di,dj,dk'", "slab", slab)
			os.Exit(2)
		}
		start = mustInts(lg, parts[0])
		count = mustInts(lg, parts[1])
	}
	data, err := c.Fetch(context.Background(), dataset, varName, start, count)
	if err != nil {
		lg.Error("hyperslab fetch failed", "dataset", dataset, "var", varName, "err", err.Error())
		os.Exit(1)
	}
	st := metrics.Stats(data)
	fmt.Printf("fetched %d values of %s: min %.4g max %.4g mean %.4g\n",
		len(data), varName, st.Min, st.Max, st.Mean)
}

func mustInts(lg *telemetry.Logger, s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			lg.Error("bad integer in -slab", "value", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
