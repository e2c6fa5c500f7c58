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
// Store writes each snapshot to one of two alternating live files and
// atomically publishes it as the safe file via rename, so a reader never
// observes a torn matrix. What is stored is the ensemble anomaly matrix
// (the covariance square root): it carries the same information as the
// O((N·G·V)²) covariance at a fraction of the footprint, and it is what
// the SVD stage actually consumes.
//
// Every snapshot carries the member bookkeeping indices (the paper's
// "keep track of which perturbation is added every time") and an
// integrity checksum.
package covstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"esse/internal/linalg"
)

const magic = "ESSECOV2"

var crcTable = crc64.MakeTable(crc64.ECMA)

// Store manages the triple-file snapshot protocol in one directory.
type Store struct {
	dir string

	mu      sync.Mutex
	toggle  int
	version int64

	// stats
	writes int64
}

// Open creates (or reuses) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("covstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) livePath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("live_%d.cov", i))
}

func (s *Store) safePath() string { return filepath.Join(s.dir, "safe.cov") }

// WriteSnapshot serializes the anomaly matrix and its member indices to
// the next live file and atomically publishes it as the safe file.
// It returns the monotonically increasing snapshot version.
func (s *Store) WriteSnapshot(m *linalg.Dense, indices []int) (int64, error) {
	if len(indices) != m.Cols {
		return 0, fmt.Errorf("covstore: %d indices for %d columns", len(indices), m.Cols)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	v := s.version
	live := s.livePath(s.toggle)
	s.toggle = 1 - s.toggle

	f, err := os.Create(live)
	if err != nil {
		return 0, fmt.Errorf("covstore: %w", err)
	}
	// One Close on both paths; a write error takes precedence over it.
	err = writeSnapshot(f, v, m, indices)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("covstore: writing %s: %w", live, err)
	}
	// Atomic publish: rename the completed live file over the safe file.
	if err := os.Rename(live, s.safePath()); err != nil {
		return 0, fmt.Errorf("covstore: publish: %w", err)
	}
	s.writes++
	return v, nil
}

// ReadSafe reads the most recently published snapshot. It returns
// os.ErrNotExist if nothing has been published yet.
func (s *Store) ReadSafe() (*linalg.Dense, []int, int64, error) {
	f, err := os.Open(s.safePath())
	if err != nil {
		return nil, nil, 0, err
	}
	//esselint:allow errdrop read-only file; Close cannot lose data
	defer f.Close()
	return readSnapshot(f)
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

func writeSnapshot(w io.Writer, version int64, m *linalg.Dense, indices []int) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	// One Write of the whole header slice: the slice header is boxed
	// once instead of one interface allocation per int64 field.
	hdr := []int64{version, int64(m.Rows), int64(m.Cols)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	idx64 := make([]int64, len(indices))
	for i, v := range indices {
		idx64[i] = int64(v)
	}
	if err := binary.Write(w, binary.LittleEndian, idx64); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, m.Data); err != nil {
		return err
	}
	sum := snapshotChecksum(version, m, indices)
	return binary.Write(w, binary.LittleEndian, sum)
}

func readSnapshot(r io.Reader) (*linalg.Dense, []int, int64, error) {
	mg := make([]byte, len(magic))
	if _, err := io.ReadFull(r, mg); err != nil {
		return nil, nil, 0, err
	}
	if string(mg) != magic {
		return nil, nil, 0, fmt.Errorf("covstore: bad magic %q", mg)
	}
	var version, rows, cols int64
	for _, p := range []*int64{&version, &rows, &cols} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, nil, 0, err
		}
	}
	if rows < 0 || cols < 0 || rows*cols > 1<<33 {
		return nil, nil, 0, fmt.Errorf("covstore: implausible shape %dx%d", rows, cols)
	}
	idx64 := make([]int64, cols)
	if err := binary.Read(r, binary.LittleEndian, idx64); err != nil {
		return nil, nil, 0, err
	}
	m := linalg.NewDense(int(rows), int(cols))
	if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
		return nil, nil, 0, err
	}
	var sum uint64
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, nil, 0, err
	}
	indices := make([]int, cols)
	for i, v := range idx64 {
		indices[i] = int(v)
	}
	if want := snapshotChecksum(version, m, indices); sum != want {
		return nil, nil, 0, fmt.Errorf("covstore: checksum mismatch (torn snapshot?)")
	}
	return m, indices, version, nil
}

// snapshotChecksum hashes header, indices and payload. Words are
// staged through one fixed block buffer so the hash sees 512-byte
// writes instead of one Write call per matrix element; the byte
// stream — and therefore the checksum — is unchanged.
func snapshotChecksum(version int64, m *linalg.Dense, indices []int) uint64 {
	h := crc64.New(crcTable)
	block := make([]byte, 0, 512)
	flush := func() {
		//esselint:allow errdrop hash.Hash.Write is documented to never fail
		h.Write(block)
		block = block[:0]
	}
	put := func(v uint64) {
		if len(block)+8 > cap(block) {
			flush()
		}
		block = binary.LittleEndian.AppendUint64(block, v)
	}
	put(uint64(version))
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, idx := range indices {
		put(uint64(idx))
	}
	for _, f := range m.Data {
		put(math.Float64bits(f))
	}
	flush()
	return h.Sum64()
}
