package realtime

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"esse/internal/telemetry"
)

// The paper's Fig. 1 draws three interleaved timelines of real-time
// forecasting: observation (ocean) time T during which measurements
// are made, forecaster time τ during which the k-th forecasting
// procedure runs, and simulation time t covering the stretch of ocean
// time each member forecast integrates. All three are data on the
// CycleResults: cycle k observes [OceanStart, OceanEnd], its members
// simulate the same interval, and its forecaster bar starts with the
// batch and lasts Forecaster, one wall second drawn as one ocean
// second.

// timelineRows names the three rows in drawing order; a row's index is
// also its Chrome tid.
var timelineRows = [...]struct{ name, label string }{
	{"observation", "T"},
	{"forecaster", "tau"},
	{"simulation", "sim"},
}

// rowSpan returns cycle c's interval on row r.
func rowSpan(c *CycleResult, r int) (start, end float64) {
	if timelineRows[r].name == "forecaster" {
		return c.OceanStart, c.OceanStart + c.Forecaster.Seconds()
	}
	return c.OceanStart, c.OceanEnd
}

// RenderTimelines draws the Fig. 1 Gantt chart of cycles as ASCII: a
// header per row, then one bar per cycle, scaled to width cells.
func RenderTimelines(cycles []*CycleResult, width int) string {
	if len(cycles) == 0 {
		return "(empty timeline)\n"
	}
	lo, hi := cycles[0].OceanStart, cycles[0].OceanEnd
	labelW := 0
	for r, row := range timelineRows {
		for _, c := range cycles {
			start, end := rowSpan(c, r)
			if start < lo {
				lo = start
			}
			if end > hi {
				hi = end
			}
			labelW = max(labelW, len(row.label)+len(strconv.Itoa(c.Cycle)))
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	scale := float64(width) / (hi - lo)
	var b strings.Builder
	for r, row := range timelineRows {
		fmt.Fprintf(&b, "--- %s time ---\n", row.name)
		for _, c := range cycles {
			start, end := rowSpan(c, r)
			startCell := int((start - lo) * scale)
			endCell := min(max(int((end-lo)*scale), startCell+1), width)
			fmt.Fprintf(&b, "%-*s |%s%s%s|\n", labelW, row.label+strconv.Itoa(c.Cycle),
				strings.Repeat(" ", startCell),
				strings.Repeat("=", endCell-startCell),
				strings.Repeat(" ", width-endCell))
		}
	}
	return b.String()
}

// chromePidPaper is the Chrome pid of the paper-time rows; the
// telemetry Tracer's wall-clock spans are on pid 1, so the two clocks
// never share an axis.
const chromePidPaper = 2

// TimelineEvents converts the three Fig. 1 rows of cycles into Chrome
// trace events (paper-time rows from cycles) on their own pid, one tid
// per row, drawing one ocean second as timeUnit of trace time.
// Appended to a Tracer's ChromeEvents, they show ocean and forecaster
// time next to where the wall clock went.
func TimelineEvents(cycles []*CycleResult, timeUnit time.Duration) []telemetry.ChromeEvent {
	n := len(timelineRows) * len(cycles)
	out := make([]telemetry.ChromeEvent, 0, n)
	// Every label is cut from one string, so the allocation count does
	// not grow with the cycles.
	buf := make([]byte, 0, n*(len("tau")+20))
	ends := make([]int, 0, n)
	usPerUnit := float64(timeUnit.Nanoseconds()) / 1e3
	for r, row := range timelineRows {
		for _, c := range cycles {
			buf = strconv.AppendInt(append(buf, row.label...), int64(c.Cycle), 10)
			ends = append(ends, len(buf))
			start, end := rowSpan(c, r)
			out = append(out, telemetry.ChromeEvent{
				Cat: row.name,
				Ph:  "X",
				Ts:  start * usPerUnit,
				Dur: (end - start) * usPerUnit,
				Pid: chromePidPaper,
				Tid: int64(r),
			})
		}
	}
	names, from := string(buf), 0
	for i, to := range ends {
		out[i].Name = names[from:to]
		from = to
	}
	return out
}
