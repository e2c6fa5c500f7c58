package opendap

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"esse/internal/grid"
	"esse/internal/ncdf"
	"esse/internal/ocean"
	"esse/internal/rng"
)

func testServer(t *testing.T) (*Server, *Client, *ocean.Model) {
	t.Helper()
	g := grid.MontereyBay(8, 8, 3)
	m := ocean.New(ocean.DefaultConfig(g), rng.New(1))
	m.Run(3)
	f, err := ncdf.FromState(m.Layout, m.State(nil), map[string]string{"kind": "ic"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Publish("initial-conditions", f)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL), m
}

func TestDatasetListing(t *testing.T) {
	srv, c, _ := testServer(t)
	srv.Publish("another", ncdf.New())
	names, err := c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "another" || names[1] != "initial-conditions" {
		t.Fatalf("datasets = %v", names)
	}
}

func TestDDSRoundTrip(t *testing.T) {
	_, c, _ := testServer(t)
	dds, err := c.DDS(context.Background(), "initial-conditions")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Float64 T[lev = 3][lat = 8][lon = 8];", "Float64 eta[lat = 8][lon = 8];"} {
		if !strings.Contains(dds, want) {
			t.Fatalf("DDS missing %q:\n%s", want, dds)
		}
	}
}

func TestDDSUnknownDataset(t *testing.T) {
	_, c, _ := testServer(t)
	if _, err := c.DDS(context.Background(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFetchFullVariable(t *testing.T) {
	_, c, m := testServer(t)
	got, err := c.Fetch(context.Background(), "initial-conditions", "T", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Layout.SliceByName(m.State(nil), "T")
	if len(got) != len(want) {
		t.Fatalf("fetched %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("T[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFetchHyperslab(t *testing.T) {
	_, c, m := testServer(t)
	// Surface level only.
	got, err := c.Fetch(context.Background(), "initial-conditions", "T", []int{0, 0, 0}, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Layout.Level(m.State(nil), m.Layout.VarIndex("T"), 0)
	if len(got) != 64 {
		t.Fatalf("slab size %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("surface slab mismatch")
		}
	}
}

func TestFetchErrors(t *testing.T) {
	_, c, _ := testServer(t)
	if _, err := c.Fetch(context.Background(), "initial-conditions", "ghost", nil, nil); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := c.Fetch(context.Background(), "ghost", "T", nil, nil); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := c.Fetch(context.Background(), "initial-conditions", "T", []int{0, 0, 0}, []int{99, 1, 1}); err == nil {
		t.Fatal("oversized slab accepted")
	}
	if _, err := c.Fetch(context.Background(), "initial-conditions", "T", []int{0, 0}, nil); err == nil {
		t.Fatal("wrong-rank start accepted")
	}
}

// TestDODSOverflowingSlabIs400 sends a start whose sum with its count
// wraps past the axis length: the handler answers 400, it does not
// index out of range.
func TestDODSOverflowingSlabIs400(t *testing.T) {
	srv, _, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet,
		"/dods/initial-conditions?var=eta&start=9223372036854775807,0&count=1,1", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %q", rec.Code, rec.Body.String())
	}
}

func TestServerStatsCountRequests(t *testing.T) {
	srv, c, _ := testServer(t)
	for i := 0; i < 5; i++ {
		if _, err := c.Fetch(context.Background(), "initial-conditions", "eta", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	reqs, bytes := srv.Stats()
	if reqs != 5 {
		t.Fatalf("requests = %d", reqs)
	}
	// 5 × (8 + 64*8 + 8) bytes of payload.
	if bytes != 5*(8+64*8+8) {
		t.Fatalf("bytes = %d", bytes)
	}
}

func TestConcurrentFetches(t *testing.T) {
	// The paper's concern: "hundreds of requests to a central OpenDAP
	// server". The server must stay consistent under concurrency.
	srv, c, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Fetch(context.Background(), "initial-conditions", "T", nil, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	reqs, _ := srv.Stats()
	if reqs != 100 {
		t.Fatalf("requests = %d", reqs)
	}
}

func TestPublishReplaces(t *testing.T) {
	srv, c, _ := testServer(t)
	f := ncdf.New()
	_ = f.AddDim("x", 2)
	_ = f.AddVar("eta", []string{"x"}, nil, []float64{42, 43})
	srv.Publish("initial-conditions", f)
	got, err := c.Fetch(context.Background(), "initial-conditions", "eta", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 42 {
		t.Fatalf("replacement not visible: %v", got)
	}
}

// Stats returns the request count and payload bytes served so far.
func (s *Server) Stats() (requests, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.requests, s.bytes
}
