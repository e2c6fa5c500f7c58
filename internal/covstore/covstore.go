// Package covstore implements the paper's on-disk covariance exchange
// between the continuously running "diff" stage and the SVD/convergence
// stage (Section 4.1):
//
//	"To fully decouple the loops without introducing a race condition on
//	 the covariance matrix file between its reading for the SVD and its
//	 writing by diff, we employ three files, a safe one for SVD to use
//	 and a live alternating pair for diff to write to, with the safe one
//	 being updated by the appropriate member of the pair."
//
// What is stored is the ensemble anomaly matrix (the covariance square
// root), in two files. Its columns go to an append-only log,
// cols_<generation>.dat, column j at byte 8·rows·j, never rewritten. A
// small header names them, each by member index (the paper's "keep
// track of which perturbation is added every time") and CRC-64. The
// triple-file protocol guards the header: it goes to one of two
// alternating live files and is renamed over the safe file, so a reader
// never sees a torn one, and the log holds every column it names. So a
// diff round writes, and an SVD round reads, only the new members.
package covstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"esse/internal/linalg"
)

const magic = "ESSECOV3"

var crcTable = crc64.MakeTable(crc64.ECMA)

// Store manages the column logs and the triple-file header protocol in
// one directory.
type Store struct {
	dir string

	mu      sync.Mutex
	toggle  int
	version int64
	gen     int       // generation of the last published header
	cur     *Snapshot // the open generation's header; nil: the next publish starts one
	buf     []byte    // encoding buffer, reused by every publish
	writes  int64
}

// Snapshot is a published header and, as Read returns it, the columns
// it names. Passed back to Read, its columns are not read again.
type Snapshot struct {
	Version int64
	Cols    [][]float64
	Indices []int // member index of each column
	gen     int
	rows    int
	sums    []uint64 // CRC-64 of each column's bytes
}

// Open creates (or reuses) a store rooted at dir. A store found there is
// continued: its next generation takes a new log name, and its versions
// go on from the published one.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("covstore: %w", err)
	}
	s := &Store{dir: dir}
	if h, err := s.readHeader(); err == nil {
		s.gen, s.version = h.gen, h.Version
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) livePath(i int) string { return filepath.Join(s.dir, "live_"+strconv.Itoa(i)+".cov") }

func (s *Store) safePath() string { return filepath.Join(s.dir, "safe.cov") }

func (s *Store) logPath(g int) string { return filepath.Join(s.dir, "cols_"+strconv.Itoa(g)+".dat") }

// NewGeneration makes the next Publish start a new log. Member indices
// cannot tell two runs apart, so each engine run starts one.
func (s *Store) NewGeneration() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = nil
}

// Publish appends to the open generation's log the columns of cols past
// the ones it has, which must lead cols under the same indices, and
// publishes a header naming them all. It returns the snapshot version,
// which only grows.
func (s *Store) Publish(cols [][]float64, indices []int) (int64, error) {
	return s.publish(cols, indices, false)
}

// WriteSnapshot publishes the columns of m as a generation of their own.
func (s *Store) WriteSnapshot(m *linalg.Dense, indices []int) (int64, error) {
	return s.publish(m.Columns(), indices, true)
}

func (s *Store) publish(cols [][]float64, indices []int, fresh bool) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(indices) != len(cols) || len(cols) == 0 {
		return 0, fmt.Errorf("covstore: %d indices for %d columns", len(indices), len(cols))
	}
	h, prevGen, flag := s.cur, s.gen, os.O_WRONLY|os.O_CREATE|os.O_APPEND
	if h == nil || fresh {
		h, flag = &Snapshot{gen: prevGen + 1, rows: len(cols[0])}, flag|os.O_TRUNC
	}
	old := len(h.Indices)
	if len(cols) < old || !slices.Equal(indices[:old], h.Indices) {
		return 0, fmt.Errorf("covstore: the columns do not extend the %d of generation %d", old, h.gen)
	}
	// A publish that fails may leave bytes in the log that no header
	// names, so until this one completes the next starts a new log.
	s.cur, s.version = nil, s.version+1
	h.Version = s.version
	buf := s.buf[:0]
	for _, c := range cols[old:] {
		start := len(buf)
		for _, v := range c {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.sums = append(h.sums, crc64.Checksum(buf[start:], crcTable))
	}
	h.Indices = append(h.Indices, indices[old:]...)
	f, err := os.OpenFile(s.logPath(h.gen), flag, 0o644)
	if err != nil {
		return 0, fmt.Errorf("covstore: %w", err)
	}
	// One Close on both paths; a write error takes precedence over it.
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("covstore: appending to %s: %w", f.Name(), err)
	}
	s.buf = appendHeader(buf[:0], h)
	live := s.livePath(s.toggle)
	s.toggle = 1 - s.toggle
	if err := os.WriteFile(live, s.buf, 0o644); err != nil {
		return 0, fmt.Errorf("covstore: %w", err)
	}
	// Atomic publish: rename the completed live file over the safe file.
	if err := os.Rename(live, s.safePath()); err != nil {
		return 0, fmt.Errorf("covstore: publish: %w", err)
	}
	s.writes++
	s.cur, s.gen = h, h.gen
	if h.gen != prevGen {
		// A reader still on the old header finds its log gone and re-reads.
		//esselint:allow errdrop a log that outlives its generation costs disk, not correctness
		os.Remove(s.logPath(prevGen))
	}
	return h.Version, nil
}

// Read reads the safe header and the columns it names. The columns prev
// holds (prev may be nil) are kept, not read, if the header names them
// in prev's generation with prev's checksums, so a read never mixes
// generations. It returns os.ErrNotExist before the first publish.
func (s *Store) Read(prev *Snapshot) (*Snapshot, error) {
	for seen := -1; ; {
		h, err := s.readHeader()
		if err != nil {
			return nil, err
		}
		if err = s.readColumns(h, prev); err == nil {
			return h, nil
		}
		if !errors.Is(err, fs.ErrNotExist) || h.gen == seen {
			return nil, err
		}
		seen = h.gen // the log was removed under us: a newer header names another
	}
}

// ReadSafe reads the most recently published snapshot as one matrix.
// It returns os.ErrNotExist if nothing has been published yet.
func (s *Store) ReadSafe() (*linalg.Dense, []int, int64, error) {
	snap, err := s.Read(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	m := linalg.NewDense(snap.rows, len(snap.Cols))
	for j, c := range snap.Cols {
		m.SetCol(j, c)
	}
	return m, snap.Indices, snap.Version, nil
}

// Version returns the last published version (0 if none).
func (s *Store) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Writes returns the number of published snapshots.
func (s *Store) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// readColumns fills h.Cols from prev where it can, else from the log.
func (s *Store) readColumns(h, prev *Snapshot) error {
	var held [][]float64
	if prev != nil && prev.gen == h.gen && len(prev.sums) <= len(h.sums) && slices.Equal(prev.sums, h.sums[:len(prev.sums)]) {
		held = prev.Cols[:len(prev.sums)]
	}
	have, n, width := len(held), len(h.sums), 8*h.rows
	f, err := os.Open(s.logPath(h.gen))
	if err != nil {
		return err
	}
	//esselint:allow errdrop read-only file; Close cannot lose data
	defer f.Close()
	buf := make([]byte, width*(n-have))
	if _, err := f.ReadAt(buf, int64(width*have)); err != nil {
		return fmt.Errorf("covstore: column log of generation %d: %w", h.gen, err)
	}
	h.Cols = append(make([][]float64, 0, n), held...)
	data := make([]float64, h.rows*(n-have))
	for j := have; j < n; j++ {
		b, col := buf[width*(j-have):width*(j-have+1)], data[h.rows*(j-have):h.rows*(j-have+1)]
		if crc64.Checksum(b, crcTable) != h.sums[j] {
			return fmt.Errorf("covstore: column %d (member %d) of generation %d fails its checksum", j, h.Indices[j], h.gen)
		}
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		h.Cols = append(h.Cols, col)
	}
	return nil
}

// appendHeader encodes h's header after the magic, with its CRC-64 last.
func appendHeader(b []byte, h *Snapshot) []byte {
	b = append(b, magic...)
	for _, w := range [...]int64{h.Version, int64(h.gen), int64(h.rows), int64(len(h.sums))} {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	for j, sum := range h.sums {
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Indices[j]))
		b = binary.LittleEndian.AppendUint64(b, sum)
	}
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

func (s *Store) readHeader() (*Snapshot, error) {
	b, err := os.ReadFile(s.safePath())
	if err != nil {
		return nil, err
	}
	body := b[:max(len(b)-8, 0)]
	if len(b) < len(magic)+40 || string(b[:len(magic)]) != magic || crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(b[len(body):]) {
		return nil, errors.New("covstore: bad magic or header checksum (torn header?)")
	}
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[len(magic)+8*i:])) }
	h, n := &Snapshot{Version: word(0), gen: int(word(1)), rows: int(word(2))}, word(3)
	if h.rows < 0 || n < 0 || len(body) != len(magic)+8*(4+2*int(n)) || int64(h.rows)*n > 1<<33 {
		return nil, fmt.Errorf("covstore: implausible header: %d rows, %d columns in %d bytes", h.rows, n, len(b))
	}
	h.Indices, h.sums = make([]int, n), make([]uint64, n)
	for j := range h.sums {
		h.Indices[j], h.sums[j] = int(word(4+2*j)), uint64(word(5+2*j))
	}
	return h, nil
}
