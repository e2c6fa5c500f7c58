// Cross-module integration tests: each test exercises a full slice of
// the system the way the paper's operational runs did — real-time
// forecasting with on-disk bookkeeping and monitoring, the ocean →
// acoustics uncertainty transfer, and the deterministic subspace
// propagation against the ensemble estimate.
package esse_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"esse/internal/acoustics"
	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/forensics"
	"esse/internal/grid"
	"esse/internal/jobdir"
	"esse/internal/monitor"
	"esse/internal/ncdf"
	"esse/internal/ocean"
	"esse/internal/opendap"
	"esse/internal/realtime"
	"esse/internal/rng"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

func integrationConfig() realtime.Config {
	cfg := realtime.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = 10, 10, 3
	cfg.Cycles = 2
	cfg.StepsPerCycle = 10
	cfg.SnapshotCount = 6
	cfg.SnapshotStride = 4
	cfg.InitialRank = 5
	cfg.Ensemble.InitialSize = 8
	cfg.Ensemble.MaxSize = 12
	cfg.Ensemble.SVDBatch = 4
	cfg.Ensemble.Workers = 4
	cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.5, MaxVarianceChange: 0.9}
	return cfg
}

// TestFullOperationalStack wires the real-time system to every
// operational substrate at once: the triple-file covariance store, the
// per-member jobdir bookkeeping, and the progress monitor — then checks
// that the science (RMSE reduction) and all the bookkeeping artifacts
// come out right.
func TestFullOperationalStack(t *testing.T) {
	store, err := covstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New()
	trackRoot := t.TempDir()

	cfg := integrationConfig()
	cfg.Ensemble.Store = store
	cfg.Ensemble.OnProgress = mon.Callback()
	trackers := map[int]*jobdir.Tracker{}
	cfg.WrapRunner = func(cycle int, r workflow.MemberRunner) workflow.MemberRunner {
		tr, err := jobdir.Open(fmt.Sprintf("%s/cycle-%d", trackRoot, cycle))
		if err != nil {
			t.Fatal(err)
		}
		trackers[cycle] = tr
		return jobdir.ResumableRunner(tr, r)
	}

	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Science: the analysis must beat the forecast at least once, and
	// the final analysis error must be far below the initial forecast
	// error.
	improved := false
	for _, r := range results {
		if r.RMSEAnalysisT < r.RMSEForecastT {
			improved = true
		}
	}
	if !improved {
		t.Fatal("assimilation never improved the temperature field")
	}
	if results[len(results)-1].RMSEAnalysisT > results[0].RMSEForecastT {
		t.Fatal("no net error reduction across cycles")
	}

	// Bookkeeping: the covariance store published snapshots; the
	// trackers recorded every used member; the monitor saw progress.
	if store.Writes() == 0 {
		t.Fatal("triple-file store never used")
	}
	for cycle, tr := range trackers {
		ok, bad, err := tr.Completed()
		if err != nil {
			t.Fatal(err)
		}
		if len(ok) < results[cycle].Ensemble.MembersUsed {
			t.Fatalf("cycle %d: tracker has %d successes, ensemble used %d",
				cycle, len(ok), results[cycle].Ensemble.MembersUsed)
		}
		if len(bad) != 0 {
			t.Fatalf("cycle %d: unexpected failures %v", cycle, bad)
		}
	}
	if _, n := mon.Latest(); n == 0 {
		t.Fatal("monitor received no updates")
	}
}

// TestOceanToAcousticsToCoupledDA runs the full interdisciplinary chain:
// ocean ensemble → sound-speed sections → TL ensemble → coupled
// subspace → acoustic data assimilation updating the ocean.
func TestOceanToAcousticsToCoupledDA(t *testing.T) {
	g := grid.MontereyBay(10, 10, 3)
	master := rng.New(7)
	scaler, err := core.NewScaler(grid.NewLayout(g, ocean.Vars(g)), core.DefaultVarScales())
	if err != nil {
		t.Fatal(err)
	}
	tlCfg := acoustics.DefaultTLConfig()
	tlCfg.NumRays = 120
	tlCfg.RangeCells, tlCfg.DepthCells = 16, 10

	var oceanZ [][]float64
	var tls []*acoustics.TLField
	for m := 0; m < 6; m++ {
		st := master.Split(uint64(m))
		cfg := ocean.DefaultConfig(g)
		cfg.Climo = cfg.Climo.Jitter(st)
		model := ocean.New(cfg, st.Split(1))
		model.RunParallel(10, 2) // members are small parallel jobs (§7)
		state := model.State(nil)
		sec, err := acoustics.ExtractSection(model.Layout, state, 1, 5, 8, 5, 12)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := acoustics.ComputeTL(sec, tlCfg)
		if err != nil {
			t.Fatal(err)
		}
		oceanZ = append(oceanZ, scaler.ToScaled(nil, state))
		tls = append(tls, tl)
	}
	ens, err := acoustics.NewCoupledEnsemble(oceanZ, tls, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := ens.NewTLNetwork([]acoustics.TLObservation{
		{RI: 4, ZI: 3, Stddev: 1}, {RI: 10, ZI: 6, Stddev: 1}, {RI: 14, ZI: 2, Stddev: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Observe a slightly quieter channel than the ensemble mean expects.
	meanTL := ens.TLPart(ens.Mean)
	y := []float64{
		meanTL[4*ens.TLCols+3] + 2,
		meanTL[10*ens.TLCols+6] + 2,
		meanTL[14*ens.TLCols+2] + 2,
	}
	prior := ens.Subspace.TotalVariance()
	an, err := ens.AssimilateTL(net, y)
	if err != nil {
		t.Fatal(err)
	}
	if an.ResidualNorm >= an.InnovationNorm {
		t.Fatal("coupled DA did not reduce the TL misfit")
	}
	if ens.Subspace.TotalVariance() >= prior {
		t.Fatal("coupled DA did not reduce uncertainty")
	}
}

// TestEnsembleVsDeterministicPropagation compares the two uncertainty
// evolution mechanisms on the same ocean flow: the MTC stochastic
// ensemble and the deterministic mode propagation. Their dominant
// forecast subspaces must substantially overlap (they estimate the same
// dynamics), with the ensemble carrying extra model-noise variance.
func TestEnsembleVsDeterministicPropagation(t *testing.T) {
	cfg := integrationConfig()
	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := sys.Subspace().Truncate(4)
	g := sys.Layout.G

	oceanCfg := ocean.DefaultConfig(g)
	scaler, err := core.NewScaler(sys.Layout, core.DefaultVarScales())
	if err != nil {
		t.Fatal(err)
	}
	steps := cfg.StepsPerCycle
	// Deterministic propagator: integrate without stochastic forcing so
	// the FD tangent is clean.
	prop := func(ctx context.Context, initialZ []float64) ([]float64, error) {
		quiet := oceanCfg
		quiet.NoiseWind, quiet.NoiseTracer = 0, 0
		m := ocean.New(quiet, rng.New(1))
		m.SetState(scaler.FromScaled(nil, initialZ))
		m.Run(steps)
		return scaler.ToScaled(nil, m.State(nil)), nil
	}
	analysisZ := scaler.ToScaled(nil, sys.Analysis())
	_, detSub, err := core.PropagateSubspace(context.Background(), prop, analysisZ, sub, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := detSub.Check(1e-6); err != nil {
		t.Fatal(err)
	}
	// Ensemble estimate of the same forecast uncertainty.
	r, err := sys.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ensSub := r.Ensemble.Subspace.Truncate(4)
	rho := core.SimilarityCoefficient(detSub, ensSub)
	if rho < 0.4 {
		t.Fatalf("deterministic and ensemble subspaces disjoint: rho = %v", rho)
	}
}

// TestOpenDAPPrestageFlow exercises the §5.3.2 input path end to end: a
// member forecast state is published by the home OpenDAP server, a
// "remote host" fetches the fields it needs and reconstructs the state
// bit-exactly.
func TestOpenDAPPrestageFlow(t *testing.T) {
	g := grid.MontereyBay(8, 8, 3)
	m := ocean.New(ocean.DefaultConfig(g), rng.New(3))
	m.Run(5)
	state := m.State(nil)
	f, err := ncdf.FromState(m.Layout, state, map[string]string{"role": "initial-conditions"})
	if err != nil {
		t.Fatal(err)
	}
	srv := opendap.NewServer()
	srv.Publish("ic", f)

	// Remote host: list → describe → fetch every variable → rebuild.
	ts := newTestHTTP(t, srv)
	c := opendap.NewClient(ts)
	rebuilt := ncdf.New()
	_ = rebuilt.AddDim("lon", g.NX)
	_ = rebuilt.AddDim("lat", g.NY)
	_ = rebuilt.AddDim("lev", g.NZ)
	for _, spec := range m.Layout.Vars {
		data, err := c.Fetch("ic", spec.Name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dims := []string{"lat", "lon"}
		if spec.Levels > 1 {
			dims = []string{"lev", "lat", "lon"}
		}
		if err := rebuilt.AddVar(spec.Name, dims, nil, data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ncdf.ToState(rebuilt, m.Layout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if got[i] != state[i] {
			t.Fatalf("prestaged state differs at %d", i)
		}
	}
}

// TestCausalTraceForensics closes the observability loop over a full
// real-time run, the way cmd/esse-report does after an operational
// cycle: the exported Chrome trace must rebuild into a span tree where
// every member and phase span parent-chains to its cycle root under a
// single seed-derived trace identity, and the forensic digest must
// recover a non-empty critical path for every cycle.
func TestCausalTraceForensics(t *testing.T) {
	const seed = 42
	tel := telemetry.New()
	tel.Tracer().SetTraceID(telemetry.DeriveTraceID(seed))

	cfg := integrationConfig()
	cfg.Telemetry = tel
	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tel.Tracer().ChromeEvents()); err != nil {
		t.Fatal(err)
	}
	tree, err := forensics.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("trace has %d orphan spans", len(tree.Orphans))
	}
	if len(tree.Roots) != cfg.Cycles {
		t.Fatalf("got %d roots, want one per cycle (%d)", len(tree.Roots), cfg.Cycles)
	}

	wantTrace := telemetry.DeriveTraceID(seed).String()
	members, phases := 0, 0
	for _, sp := range tree.ByID {
		if sp.TraceID != wantTrace {
			t.Fatalf("span %s/%s carries trace %q, want %q", sp.Cat, sp.Name, sp.TraceID, wantTrace)
		}
		root, ok := tree.RootChain(sp)
		if !ok || root.Cat != "realtime" || root.Base() != "cycle" {
			t.Fatalf("span %s/%s does not chain to a cycle root", sp.Cat, sp.Name)
		}
		if sp.Cat == "workflow" && sp.Base() == "member" {
			members++
		}
		if sp.Cat == "realtime" && sp.Base() != "cycle" {
			phases++
		}
	}
	if members == 0 {
		t.Fatal("no member spans in the trace")
	}
	if phases == 0 {
		t.Fatal("no phase spans in the trace")
	}

	// Forensics digest: every cycle recovers a non-empty critical path
	// rooted at its cycle span, and the audit sees the emitted events.
	events := &telemetry.EventsPage{
		Total:  tel.Events().Total(),
		Oldest: tel.Events().Oldest(),
		Events: tel.Events().Snapshot(0),
	}
	var mbuf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&mbuf); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParsePrometheus(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	d := forensics.BuildDigest(tree, events, exp)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.TraceID != wantTrace {
		t.Fatalf("digest trace id %q, want %q", d.TraceID, wantTrace)
	}
	if len(d.Cycles) != len(results) {
		t.Fatalf("digest has %d cycles, run produced %d", len(d.Cycles), len(results))
	}
	for _, c := range d.Cycles {
		if len(c.CriticalPath) == 0 {
			t.Fatalf("cycle %s has an empty critical path", c.Root)
		}
		if c.Members == 0 {
			t.Fatalf("cycle %s saw no member spans", c.Root)
		}
	}
	if d.Audit.Done == 0 {
		t.Fatal("audit saw no completed tasks")
	}
}
