package opendap

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// errServer serves whatever handler a test installs, returning a
// client pointed at it.
func errServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

func TestFetchNon200CarriesServerText(t *testing.T) {
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dataset is being republished", http.StatusServiceUnavailable)
	})
	_, err := c.Fetch(context.Background(), "forecast-000", "T", nil, nil)
	if err == nil {
		t.Fatal("non-200 fetch accepted")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error does not name the status: %v", err)
	}
	if !strings.Contains(err.Error(), "dataset is being republished") {
		t.Fatalf("error dropped the server's explanation: %v", err)
	}
}

func TestDatasetsNon200(t *testing.T) {
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	if _, err := c.Datasets(context.Background()); err == nil {
		t.Fatal("non-200 listing accepted")
	}
}

// TestDatasetsCtxHonoursItsContext lists a server that never answers
// under a 100 ms context: the call ends with the context's error, long
// before the client's own 60 s timeout.
func TestDatasetsCtxHonoursItsContext(t *testing.T) {
	release := make(chan struct{})
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	t.Cleanup(func() { close(release) }) // before the server closes
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Datasets(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Datasets = %v, want the context's deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Datasets still waiting 5 s after its context ended")
	}
}

// payload builds a wire-correct /dods body: length header, values, CRC.
func payload(values []float64) []byte {
	var b []byte
	h := crc64.New(crcTable)
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(len(values)))
	for _, v := range values {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	_, _ = h.Write(b)
	return le.AppendUint64(b, h.Sum64())
}

func TestFetchTruncatedPayload(t *testing.T) {
	full := payload([]float64{1, 2, 3, 4})
	cases := []struct {
		name string
		cut  int // bytes to drop from the tail
	}{
		{"missing checksum", 8},
		{"mid value", 8 + 12},
		{"header only", len(full) - 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write(full[:len(full)-tc.cut])
			})
			if _, err := c.Fetch(context.Background(), "d", "T", nil, nil); err == nil {
				t.Fatal("truncated payload accepted")
			}
		})
	}
}

func TestFetchCorruptPayload(t *testing.T) {
	full := payload([]float64{1, 2, 3, 4})
	flipped := append([]byte(nil), full...)
	flipped[10] ^= 0xff // damage a value byte, leave length + CRC in place
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(flipped)
	})
	_, err := c.Fetch(context.Background(), "d", "T", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload not caught by checksum: %v", err)
	}
}

func TestFetchImplausibleLength(t *testing.T) {
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		var b []byte
		b = binary.LittleEndian.AppendUint64(b, 1<<40) // claims 8 TiB of floats
		_, _ = w.Write(b)
	})
	_, err := c.Fetch(context.Background(), "d", "T", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible length header accepted: %v", err)
	}
}

// TestFetchHungServer proves the client's Timeout bounds a server that
// accepts the request and then stalls mid-body: the paper's remote
// execution host must fail over, not hang the forecast deadline away.
func TestFetchHungServer(t *testing.T) {
	release := make(chan struct{})
	c := errServer(t, func(w http.ResponseWriter, r *http.Request) {
		var b []byte
		b = binary.LittleEndian.AppendUint64(b, 4) // promise 4 values...
		_, _ = w.Write(b)
		w.(http.Flusher).Flush()
		<-release // ...and never deliver them
	})
	defer close(release)
	c.HTTP = &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err := c.Fetch(context.Background(), "d", "T", nil, nil)
	if err == nil {
		t.Fatal("hung server did not error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client hung %v despite 100ms timeout", elapsed)
	}
}

func TestNewClientIsBounded(t *testing.T) {
	c := NewClient("http://example.invalid/")
	if c.HTTP == nil || c.HTTP.Timeout <= 0 {
		t.Fatal("NewClient returned an unbounded HTTP client")
	}
	if c.HTTP == http.DefaultClient {
		t.Fatal("NewClient shares http.DefaultClient; a global timeout change would leak across users")
	}
}
