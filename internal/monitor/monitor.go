// Package monitor provides live visibility into a running ESSE ensemble
// — the capability the paper found missing on the Grid ("This approach
// gives no easy way for the user to monitor the progress of one's jobs",
// §5.3.1). A Monitor consumes workflow progress snapshots through the
// engine's OnProgress hook and serves them as JSON (machine-readable)
// and plain text (forecaster-readable), including a short history for
// trend display, on the same mux as the telemetry endpoints.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"esse/internal/workflow"
)

// maxHistory is how many snapshots /history keeps.
const maxHistory = 256

// histEntry pairs a snapshot with the value of the update counter at
// the moment it arrived, so /history reports true update ordinals even
// after the ring has dropped older entries.
type histEntry struct {
	p       workflow.Progress
	updates int64
}

// Monitor aggregates progress snapshots from one or more ensemble runs.
type Monitor struct {
	mu      sync.RWMutex
	latest  workflow.Progress
	history []histEntry
	updates int64
}

// New returns a monitor keeping the newest maxHistory snapshots.
func New() *Monitor {
	return &Monitor{}
}

// Callback returns the function to plug into workflow.Config.OnProgress.
func (m *Monitor) Callback() func(workflow.Progress) {
	return func(p workflow.Progress) {
		m.mu.Lock()
		m.latest = p
		m.updates++
		m.history = append(m.history, histEntry{p: p, updates: m.updates})
		if len(m.history) > maxHistory {
			m.history = m.history[len(m.history)-maxHistory:]
		}
		m.mu.Unlock()
	}
}

// Latest returns the most recent snapshot and how many updates arrived.
func (m *Monitor) Latest() (workflow.Progress, int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.latest, m.updates
}

// statusJSON is the wire format of /status.
type statusJSON struct {
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Cancelled int     `json:"cancelled"`
	Target    int     `json:"target"`
	SVDRounds int     `json:"svd_rounds"`
	Converged bool    `json:"converged"`
	Rho       float64 `json:"rho"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Updates   int64   `json:"updates"`
}

// Mount registers GET /status (JSON), GET /status.txt (text) and
// GET /history (JSON array) on mux, beside telemetry's Mount.
func (m *Monitor) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		p, n := m.Latest()
		w.Header().Set("Content-Type", "application/json")
		//esselint:allow errdrop a failed write means the client went away; nothing to do
		_ = json.NewEncoder(w).Encode(toJSON(p, n))
	})
	mux.HandleFunc("/status.txt", func(w http.ResponseWriter, r *http.Request) {
		p, n := m.Latest()
		var b strings.Builder
		fmt.Fprintf(&b, "ensemble progress: %d/%d members (%d failed, %d cancelled)\n",
			p.Completed, p.Target, p.Failed, p.Cancelled)
		fmt.Fprintf(&b, "SVD rounds: %d, converged: %v (rho=%.4f)\n", p.SVDRounds, p.Converged, p.Rho)
		fmt.Fprintf(&b, "elapsed: %v, %d updates\n", p.Elapsed.Round(time.Millisecond), n)
		w.Header().Set("Content-Type", "text/plain")
		//esselint:allow errdrop a failed write means the client went away; nothing to do
		_, _ = io.WriteString(w, b.String())
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		// Snapshot under the read lock; convert and encode outside it so
		// a slow client cannot stretch the critical section.
		m.mu.RLock()
		entries := make([]histEntry, len(m.history))
		copy(entries, m.history)
		m.mu.RUnlock()
		out := make([]statusJSON, len(entries))
		for i, e := range entries {
			out[i] = toJSON(e.p, e.updates)
		}
		w.Header().Set("Content-Type", "application/json")
		//esselint:allow errdrop a failed write means the client went away; nothing to do
		_ = json.NewEncoder(w).Encode(out)
	})
}

// finiteOr returns v, or fallback when v is NaN/±Inf.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

func toJSON(p workflow.Progress, updates int64) statusJSON {
	js := statusJSON{
		Completed: p.Completed,
		Failed:    p.Failed,
		Cancelled: p.Cancelled,
		Target:    p.Target,
		SVDRounds: p.SVDRounds,
		Converged: p.Converged,
		Rho:       p.Rho,
		ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond),
		Updates:   updates,
	}
	// encoding/json fails at runtime on non-finite floats, and rho is a
	// ratio of singular values that legitimately goes NaN when the
	// ensemble degenerates — degrade the payload instead of killing the
	// status endpoint mid-run.
	js.Rho = finiteOr(js.Rho, 0)
	js.ElapsedMS = finiteOr(js.ElapsedMS, 0)
	return js
}
