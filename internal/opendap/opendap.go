// Package opendap implements the remote-data-access path of the paper's
// Section 5.3.2: "As a minimum requirement the shared input files can be
// read remotely from OpenDAP servers at the home institution (using the
// NetCDF-OpenDAP library) allowing the immediate opportunistic use of a
// remote resource that is discovered to be idling."
//
// Server publishes ncdf datasets over HTTP with a DAP-like surface:
//
//	GET /datasets                                  — list dataset names
//	GET /dds/{name}                                — structure descriptor
//	GET /dods/{name}?var=T&start=0,0,0&count=1,4,4 — binary hyperslab
//
// Client fetches structure and hyperslabs; the binary payload carries a
// length header and a CRC so a truncated response is detected rather
// than silently assimilated. The server counts requests and bytes so
// experiments can quantify the "hundreds of requests to a central
// OpenDAP server" concern the paper raises.
package opendap

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"esse/internal/ncdf"
	"esse/internal/telemetry"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Server publishes a set of named datasets.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*ncdf.File

	// stats
	requests int64
	bytes    int64

	// telemetry handles (nil no-ops unless Instrument is called)
	tel    *telemetry.Telemetry
	cBytes *telemetry.Counter
}

// Instrument registers the server's byte counter in tel and arms the
// telemetry middleware Handler wraps around each route, which counts
// requests per route and opens a span per request. Call it before
// Handler; a nil tel is a no-op.
func (s *Server) Instrument(tel *telemetry.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = tel
	s.cBytes = tel.Counter("esse_opendap_bytes_total", "Payload bytes served.")
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{datasets: make(map[string]*ncdf.File)}
}

// Publish registers (or replaces) a dataset under the given name.
func (s *Server) Publish(name string, f *ncdf.File) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = f
}

// Handler returns the HTTP handler implementing the protocol. When the
// server is instrumented, every route runs behind the telemetry
// middleware (a span per request, whose duration is its latency, and a
// request count per route). Uninstrumented, the routes are served bare.
func (s *Server) Handler() http.Handler {
	s.mu.RLock()
	tel := s.tel
	s.mu.RUnlock()
	mux := http.NewServeMux()
	mux.Handle("/datasets", tel.Instrument("opendap-datasets", http.HandlerFunc(s.handleList)))
	mux.Handle("/dds/", tel.Instrument("opendap-dds", http.HandlerFunc(s.handleDDS)))
	mux.Handle("/dods/", tel.Instrument("opendap-dods", http.HandlerFunc(s.handleDODS)))
	return mux
}

func (s *Server) count(n int64) {
	// The counter pointer is snapshotted under the lock (Instrument
	// writes it under mu) and bumped outside it: the nil counter is a
	// no-op, and Add is atomic.
	s.mu.Lock()
	s.requests++
	s.bytes += n
	cBytes := s.cBytes
	s.mu.Unlock()
	cBytes.Add(uint64(n))
}

func (s *Server) get(name string) (*ncdf.File, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.datasets[name]
	return f, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	body := strings.Join(names, "\n") + "\n"
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, body) //esselint:allow errdrop a failed write means the client went away
	s.count(int64(len(body)))
}

func (s *Server) handleDDS(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/dds/")
	f, ok := s.get(name)
	if !ok {
		http.Error(w, "unknown dataset "+name, http.StatusNotFound)
		return
	}
	body := f.DDS(name)
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, body) //esselint:allow errdrop a failed write means the client went away
	s.count(int64(len(body)))
}

func (s *Server) handleDODS(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/dods/")
	f, ok := s.get(name)
	if !ok {
		http.Error(w, "unknown dataset "+name, http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	varName := q.Get("var")
	v, ok := f.Var(varName)
	if !ok {
		http.Error(w, "unknown variable "+varName, http.StatusNotFound)
		return
	}
	shape := f.Shape(v)
	start, err := parseIntList(q.Get("start"), len(shape), 0)
	if err != nil {
		http.Error(w, "bad start: "+err.Error(), http.StatusBadRequest)
		return
	}
	count, err := parseIntList(q.Get("count"), len(shape), -1)
	if err != nil {
		http.Error(w, "bad count: "+err.Error(), http.StatusBadRequest)
		return
	}
	for i := range count {
		if count[i] < 0 { // default: to the end of the axis
			count[i] = shape[i] - start[i]
		}
	}
	data, err := f.HyperSlab(v, start, count)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Payload: int64 length, float64 data, crc64.
	w.Header().Set("Content-Type", "application/octet-stream")
	h := crc64.New(crcTable)
	mw := io.MultiWriter(w, h)
	binary.Write(mw, binary.LittleEndian, int64(len(data))) //esselint:allow errdrop a failed write means the client went away
	binary.Write(mw, binary.LittleEndian, data)             //esselint:allow errdrop a failed write means the client went away
	binary.Write(w, binary.LittleEndian, h.Sum64())         //esselint:allow errdrop a failed write means the client went away
	s.count(int64(8 + 8*len(data) + 8))
}

func parseIntList(s string, rank, def int) ([]int, error) {
	out := make([]int, rank)
	for i := range out {
		out[i] = def
	}
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != rank {
		return nil, fmt.Errorf("got %d components, variable rank is %d", len(parts), rank)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// --- client -----------------------------------------------------------------

// Client talks to a Server over HTTP. Each request is cancellable
// through its context.
type Client struct {
	Base string // e.g. "http://host:port"
	HTTP *http.Client
}

// NewClient returns a client for the given base URL. The client is
// bounded: a data server that accepts the connection and then stalls
// (a remote execution host mid-restart, say) fails the fetch after
// clientTimeout instead of hanging the forecast pipeline. Callers
// needing different bounds can replace HTTP.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: clientTimeout},
	}
}

// clientTimeout caps one whole request/response exchange, including
// reading the body. Hyperslab payloads are tens of MB at worst, so a
// minute is generous on any link the paper's setting cares about.
const clientTimeout = 60 * time.Second

// get issues one GET under ctx.
func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("opendap: %w", err)
	}
	return c.HTTP.Do(req)
}

// Datasets lists the server's dataset names.
func (c *Client) Datasets(ctx context.Context) ([]string, error) {
	resp, err := c.get(ctx, c.Base+"/datasets")
	if err != nil {
		return nil, fmt.Errorf("opendap: %w", err)
	}
	defer resp.Body.Close() //esselint:allow errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("opendap: listing failed: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("opendap: %w", err)
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// DDS fetches the structure descriptor of a dataset.
func (c *Client) DDS(ctx context.Context, dataset string) (string, error) {
	resp, err := c.get(ctx, c.Base+"/dds/"+dataset)
	if err != nil {
		return "", fmt.Errorf("opendap: %w", err)
	}
	defer resp.Body.Close() //esselint:allow errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("opendap: DDS failed: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("opendap: %w", err)
	}
	return string(body), nil
}

// Fetch retrieves a hyperslab of a variable. Pass nil start/count for
// the full array.
func (c *Client) Fetch(ctx context.Context, dataset, variable string, start, count []int) ([]float64, error) {
	url := fmt.Sprintf("%s/dods/%s?var=%s", c.Base, dataset, variable)
	if len(start) > 0 {
		url += "&start=" + joinInts(start)
	}
	if len(count) > 0 {
		url += "&count=" + joinInts(count)
	}
	resp, err := c.get(ctx, url)
	if err != nil {
		return nil, fmt.Errorf("opendap: %w", err)
	}
	defer resp.Body.Close() //esselint:allow errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		//esselint:allow errdrop best-effort capture of the server's error text
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("opendap: fetch failed: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var n int64
	h := crc64.New(crcTable)
	tr := io.TeeReader(resp.Body, h)
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("opendap: %w", err)
	}
	if n < 0 || n > 1<<32 {
		return nil, fmt.Errorf("opendap: implausible payload length %d", n)
	}
	data := make([]float64, n)
	if err := binary.Read(tr, binary.LittleEndian, data); err != nil {
		return nil, fmt.Errorf("opendap: truncated payload: %w", err)
	}
	want := h.Sum64()
	var sum uint64
	if err := binary.Read(resp.Body, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("opendap: missing checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("opendap: checksum mismatch")
	}
	return data, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
