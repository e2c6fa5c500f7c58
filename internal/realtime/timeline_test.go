package realtime

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestFig1TilesOceanTime checks the Fig. 1 data a run leaves on its
// cycles: the ocean intervals tile ocean time from 0, each one
// StepsPerCycle model steps long, and every forecaster bar has length.
func TestFig1TilesOceanTime(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(sys.Cfg.StepsPerCycle) * sys.oceanCfg.Dt
	end := 0.0
	for _, c := range cycles {
		if c.OceanStart != end {
			t.Errorf("cycle %d starts at ocean time %v, the previous one ended at %v", c.Cycle, c.OceanStart, end)
		}
		if got := c.OceanEnd - c.OceanStart; math.Abs(got-want) > 1e-9*want {
			t.Errorf("cycle %d covers %v s of ocean time, want %v", c.Cycle, got, want)
		}
		if c.Forecaster <= 0 {
			t.Errorf("cycle %d forecaster duration %v, want > 0", c.Cycle, c.Forecaster)
		}
		end = c.OceanEnd
	}
	// The Fig. 1 extent is [0, Cycles·StepsPerCycle·Dt].
	if span := float64(sys.Cfg.Cycles) * want; math.Abs(end-span) > 1e-9*span {
		t.Errorf("cycles end at ocean time %v, want %v", end, span)
	}
}

// TestTimelineHasAllThreeRows checks that a run's cycles yield one
// observation, one forecaster and one simulation bar per cycle.
func TestTimelineHasAllThreeRows(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, e := range TimelineEvents(cycles, time.Second) {
		rows[e.Cat]++
	}
	for _, row := range []string{"observation", "forecaster", "simulation"} {
		if rows[row] != sys.Cfg.Cycles {
			t.Fatalf("row %s has %d bars, want %d", row, rows[row], sys.Cfg.Cycles)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v, want exactly the three Fig. 1 rows", rows)
	}
}

func TestRenderTimelines(t *testing.T) {
	cycles := []*CycleResult{
		{Cycle: 0, OceanStart: 0, OceanEnd: 10, Forecaster: 4 * time.Second},
		{Cycle: 1, OceanStart: 10, OceanEnd: 20, Forecaster: 5 * time.Second},
	}
	want := `--- observation time ---
T0   |==========          |
T1   |          ==========|
--- forecaster time ---
tau0 |====                |
tau1 |          =====     |
--- simulation time ---
sim0 |==========          |
sim1 |          ==========|
`
	if got := RenderTimelines(cycles, 20); got != want {
		t.Errorf("RenderTimelines =\n%s\nwant\n%s", got, want)
	}
}

func TestRenderTimelinesEmpty(t *testing.T) {
	if got := RenderTimelines(nil, 20); got != "(empty timeline)\n" {
		t.Errorf("no cycles rendered as %q", got)
	}
}

func TestTimelineEvents(t *testing.T) {
	evs := TimelineEvents([]*CycleResult{
		{Cycle: 3, OceanStart: 1, OceanEnd: 4, Forecaster: 500 * time.Millisecond},
	}, time.Second)
	// One ocean second = 1 s = 1e6 trace µs; one tid per row.
	want := []struct {
		name, cat string
		ts, dur   float64
	}{
		{"T3", "observation", 1e6, 3e6},
		{"tau3", "forecaster", 1e6, 0.5e6},
		{"sim3", "simulation", 1e6, 3e6},
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %+v, want %d", evs, len(want))
	}
	for i, w := range want {
		e := evs[i]
		if e.Name != w.name || e.Cat != w.cat || e.Ph != "X" || e.Ts != w.ts || e.Dur != w.dur ||
			e.Pid != chromePidPaper || e.Tid != int64(i) {
			t.Errorf("event %d = %+v, want %s/%s ts %v dur %v on pid %d tid %d",
				i, e, w.cat, w.name, w.ts, w.dur, chromePidPaper, i)
		}
	}
	if evs := TimelineEvents(nil, time.Second); len(evs) != 0 {
		t.Fatalf("no cycles = %+v, want none", evs)
	}

	// The events and their labels are sized once, so the count does not
	// grow with the cycles.
	allocs := func(n int) float64 {
		cycles := make([]*CycleResult, n)
		for i := range cycles {
			cycles[i] = &CycleResult{Cycle: i, OceanStart: float64(i), OceanEnd: float64(i + 1), Forecaster: time.Second}
		}
		return testing.AllocsPerRun(20, func() { TimelineEvents(cycles, time.Second) })
	}
	if few, many := allocs(16), allocs(256); few != many {
		t.Errorf("TimelineEvents: %.0f allocs/op over 16 cycles, %.0f over 256, want equal", few, many)
	}
}
