package monitor

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/rng"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

func runMonitoredEnsemble(t *testing.T, m *Monitor) *workflow.Result {
	t.Helper()
	s := rng.New(1)
	a := linalg.NewDense(40, 2)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	truth := &core.Subspace{Modes: f.Q, Sigma: []float64{2, 1}}
	master := rng.New(2)
	runner := func(ctx context.Context, index int) ([]float64, error) {
		return truth.Perturb(nil, master.Split(uint64(index)), 0.01), nil
	}
	cfg := workflow.DefaultConfig()
	cfg.InitialSize = 16
	cfg.MaxSize = 16
	cfg.SVDBatch = 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	cfg.OnProgress = m.Callback()
	res, err := workflow.RunParallel(context.Background(), cfg, make([]float64, 40), runner)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMonitorReceivesUpdates(t *testing.T) {
	m := New()
	res := runMonitoredEnsemble(t, m)
	p, n := m.Latest()
	if n == 0 {
		t.Fatal("no progress updates delivered")
	}
	if p.Completed != res.MembersUsed {
		t.Fatalf("final snapshot completed=%d, result=%d", p.Completed, res.MembersUsed)
	}
	if p.Target != 16 {
		t.Fatalf("target = %d", p.Target)
	}
}

func TestMonitorHistoryMonotone(t *testing.T) {
	m := New()
	runMonitoredEnsemble(t, m)
	m.mu.RLock()
	defer m.mu.RUnlock()
	prev := -1
	for i, e := range m.history {
		if e.p.Completed < prev {
			t.Fatalf("history not monotone at %d: %d < %d", i, e.p.Completed, prev)
		}
		prev = e.p.Completed
	}
	if len(m.history) == 0 {
		t.Fatal("empty history")
	}
}

func TestMonitorHistoryBounded(t *testing.T) {
	m := New()
	cb := m.Callback()
	const updates = maxHistory + 50
	for i := 0; i < updates; i++ {
		cb(workflow.Progress{Completed: i})
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.history) != maxHistory {
		t.Fatalf("history length %d, want %d", len(m.history), maxHistory)
	}
	// Entry i is update 51+i of the run: the oldest 50 were dropped, and
	// each kept entry carries its true ordinal.
	for i, e := range m.history {
		if e.p.Completed != 50+i || e.updates != int64(51+i) {
			t.Fatalf("history[%d] = completed %d, update %d; want %d, %d",
				i, e.p.Completed, e.updates, 50+i, 51+i)
		}
	}
}

// handler mounts m on a fresh mux.
func handler(m *Monitor) *http.ServeMux {
	mux := http.NewServeMux()
	m.Mount(mux)
	return mux
}

func TestStatusEndpoints(t *testing.T) {
	m := New()
	runMonitoredEnsemble(t, m)
	ts := httptest.NewServer(handler(m))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Completed int     `json:"completed"`
		Target    int     `json:"target"`
		Rho       float64 `json:"rho"`
		Updates   int64   `json:"updates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 16 || st.Target != 16 || st.Updates == 0 {
		t.Fatalf("status = %+v", st)
	}

	resp2, err := ts.Client().Get(ts.URL + "/status.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "16/16 members") {
		t.Fatalf("status.txt = %q", body)
	}

	resp3, err := ts.Client().Get(ts.URL + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var hist []json.RawMessage
	if err := json.NewDecoder(resp3.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("empty history endpoint")
	}
}

func TestFiniteOr(t *testing.T) {
	if got := finiteOr(0.75, 0); got != 0.75 {
		t.Fatalf("finiteOr(0.75, 0) = %v", got)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := finiteOr(v, 0); got != 0 {
			t.Fatalf("finiteOr(%v, 0) = %v, want the fallback", v, got)
		}
	}
}

func TestMonitorEmptyStatus(t *testing.T) {
	m := New()
	ts := httptest.NewServer(handler(m))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("empty monitor status = %d", resp.StatusCode)
	}
}

// rho goes NaN when the ensemble degenerates (§4's convergence ratio);
// the JSON endpoints must still answer with a document.
func TestStatusSurvivesNaNRho(t *testing.T) {
	m := New()
	m.Callback()(workflow.Progress{Rho: math.NaN()})
	h := handler(m)
	for _, path := range []string{"/status", "/history"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Errorf("%s with rho = NaN: %v (body %q)", path, err, rec.Body.String())
		}
	}
}

// TestOneMux serves the monitor and the telemetry endpoints from one
// mux, as the -telemetry-addr server of esse-forecast does.
func TestOneMux(t *testing.T) {
	m := New()
	tel := telemetry.New()
	m.Callback()(workflow.Progress{Completed: 3, Target: 8})
	tel.Counter("esse_mux_total", "Mounted beside /status.").Inc()
	mux := http.NewServeMux()
	tel.Mount(mux)
	m.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	if body := get("/status"); !strings.Contains(body, `"completed":3,`) {
		t.Errorf("/status = %q", body)
	}
	exp, err := telemetry.ParsePrometheus(strings.NewReader(get("/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("esse_mux_total"); !ok || v != 1 {
		t.Errorf("/metrics esse_mux_total = %v, %v", v, ok)
	}
}
