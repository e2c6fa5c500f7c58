package monitor

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/rng"
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
	m := New(0)
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
	m := New(0)
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
	m := New(5)
	cb := m.Callback()
	for i := 0; i < 50; i++ {
		cb(workflow.Progress{Completed: i})
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.history) != 5 {
		t.Fatalf("history length %d, want 5", len(m.history))
	}
	if m.history[4].p.Completed != 49 {
		t.Fatal("history did not keep the newest snapshots")
	}
	if m.history[4].updates != 50 {
		t.Fatalf("newest history entry carries update %d, want 50", m.history[4].updates)
	}
}

func TestStatusEndpoints(t *testing.T) {
	m := New(0)
	runMonitoredEnsemble(t, m)
	ts := httptest.NewServer(m.Handler())
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
	m := New(0)
	ts := httptest.NewServer(m.Handler())
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
	m := New(0)
	m.Callback()(workflow.Progress{Rho: math.NaN()})
	h := m.Handler()
	for _, path := range []string{"/status", "/history"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Errorf("%s with rho = NaN: %v (body %q)", path, err, rec.Body.String())
		}
	}
}
