package covstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"esse/internal/linalg"
	"esse/internal/rng"
)

func testMatrix(seed uint64, r, c int) (*linalg.Dense, []int) {
	s := rng.New(seed)
	m := linalg.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	idx := make([]int, c)
	for i := range idx {
		idx[i] = i * 3
	}
	return m, idx
}

func TestWriteReadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, idx := testMatrix(1, 20, 5)
	v, err := st.WriteSnapshot(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first version = %d", v)
	}
	got, gotIdx, gotV, err := st.ReadSafe()
	if err != nil {
		t.Fatal(err)
	}
	if gotV != 1 {
		t.Fatalf("read version = %d", gotV)
	}
	if !got.EqualApprox(m, 0) {
		t.Fatal("matrix did not round trip")
	}
	for i := range idx {
		if gotIdx[i] != idx[i] {
			t.Fatalf("indices did not round trip: %v vs %v", gotIdx, idx)
		}
	}
}

func TestReadBeforeWriteIsNotExist(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.ReadSafe()
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("expected ErrNotExist, got %v", err)
	}
}

func TestVersionsIncrease(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, idx := testMatrix(2, 4, 2)
	for want := int64(1); want <= 5; want++ {
		v, err := st.WriteSnapshot(m, idx)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("version = %d, want %d", v, want)
		}
	}
	if st.Version() != 5 || st.Writes() != 5 {
		t.Fatalf("Version=%d Writes=%d", st.Version(), st.Writes())
	}
}

func TestLatestSnapshotWins(t *testing.T) {
	st, _ := Open(t.TempDir())
	m1, idx1 := testMatrix(3, 6, 2)
	m2, idx2 := testMatrix(4, 6, 3)
	if _, err := st.WriteSnapshot(m1, idx1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(m2, idx2); err != nil {
		t.Fatal(err)
	}
	got, gotIdx, v, err := st.ReadSafe()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || got.Cols != 3 || len(gotIdx) != 3 {
		t.Fatalf("stale snapshot read: v=%d cols=%d", v, got.Cols)
	}
}

func TestIndexCountValidation(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, _ := testMatrix(5, 4, 3)
	if _, err := st.WriteSnapshot(m, []int{1}); err == nil {
		t.Fatal("index/column mismatch accepted")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	m, idx := testMatrix(6, 8, 4)
	if _, err := st.WriteSnapshot(m, idx); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the safe file.
	path := st.safePath()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.ReadSafe(); err == nil {
		t.Fatal("corrupted snapshot passed checksum")
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	// The safety property of the triple-file protocol: under concurrent
	// publishing, a reader always sees a complete, checksum-valid
	// snapshot (never a torn file), whether each write is a generation
	// of its own or one generation grows round by round. The reader
	// passes back what it holds, so it also never mixes generations:
	// version v is exactly what write v published.
	const writes = 60
	grown, grownIdx := testMatrix(99, 50, writes)
	grownCols := grown.Columns()
	writers := []struct {
		name  string
		write func(st *Store, i int) error
		want  func(v int64) ([][]float64, []int)
	}{
		{"snapshots", func(st *Store, i int) error {
			m, idx := testMatrix(uint64(i), 50, 1+i%7)
			_, err := st.WriteSnapshot(m, idx)
			return err
		}, func(v int64) ([][]float64, []int) {
			m, idx := testMatrix(uint64(v-1), 50, 1+int(v-1)%7)
			return m.Columns(), idx
		}},
		{"one generation", func(st *Store, i int) error {
			_, err := st.Publish(grownCols[:i+1], grownIdx[:i+1])
			return err
		}, func(v int64) ([][]float64, []int) { return grownCols[:v], grownIdx[:v] }},
	}
	for _, w := range writers {
		st, _ := Open(t.TempDir())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := w.write(st, i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var snap *Snapshot
		reads := 0
		for snap == nil || snap.Version < writes {
			got, err := st.Read(snap)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: read %d: %v", w.name, reads, err)
			}
			if snap != nil && got.Version < snap.Version {
				t.Fatalf("%s: version went backwards: %d after %d", w.name, got.Version, snap.Version)
			}
			cols, idx := w.want(got.Version)
			if !slices.Equal(got.Indices, idx) || len(got.Cols) != len(cols) {
				t.Fatalf("%s: version %d has members %v, want %v", w.name, got.Version, got.Indices, idx)
			}
			for j := range cols {
				if !slices.Equal(got.Cols[j], cols[j]) {
					t.Fatalf("%s: version %d column %d is not the one published", w.name, got.Version, j)
				}
			}
			snap = got
			reads++
		}
		wg.Wait()
		if reads == 0 {
			t.Fatalf("%s: no successful concurrent reads", w.name)
		}
	}
}

// TestSnapshotsCloseTheirFiles counts the process's open descriptors
// across 20 writes and reads: none is left open.
func TestSnapshotsCloseTheirFiles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	st, _ := Open(t.TempDir())
	m, idx := testMatrix(1, 4, 2)
	before := fds()
	for i := 0; i < 20; i++ {
		if _, err := st.WriteSnapshot(m, idx); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := st.ReadSafe(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("%d descriptors open before 20 writes and reads, %d after", before, after)
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := t.TempDir() + "/nested/store"
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, idx := testMatrix(7, 3, 2)
	if _, err := st.WriteSnapshot(m, idx); err != nil {
		t.Fatal(err)
	}
	if st.Dir() != dir {
		t.Fatalf("Dir = %q", st.Dir())
	}
}

func TestReadSafeBadMagic(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := os.WriteFile(st.safePath(), []byte("GARBAGEGARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.ReadSafe(); err == nil {
		t.Fatal("garbage safe file accepted")
	}
}

func TestWriteSnapshotDirectoryRemoved(t *testing.T) {
	dir := t.TempDir() + "/gone"
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m, idx := testMatrix(1, 3, 2)
	if _, err := st.WriteSnapshot(m, idx); err == nil {
		t.Fatal("write into removed directory succeeded")
	}
}

// Publish encodes into a buffer the store keeps, so what a publish
// allocates does not grow with the members it adds or with the columns
// its generation already has.
func TestPublishAllocs(t *testing.T) {
	m, idx := testMatrix(1, 20, 200)
	cols := m.Columns()
	for _, base := range []int{2, 64} {
		for _, add := range []int{1, 4} {
			st, _ := Open(t.TempDir())
			n := base
			if _, err := st.Publish(cols[:n], idx[:n]); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				n += add
				if _, err := st.Publish(cols[:n], idx[:n]); err != nil {
					t.Fatal(err)
				}
			})
			if got != 15 {
				t.Errorf("Publish of %d onto %d columns: %.0f allocs/op, want 15", add, base, got)
			}
		}
	}
}

func publishAll(t *testing.T, st *Store, m *linalg.Dense, idx []int, steps ...int) *Snapshot {
	t.Helper()
	cols := m.Columns()
	for _, n := range steps {
		if _, err := st.Publish(cols[:n], idx[:n]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// A generation's log only ever grows: after each publish it holds
// exactly the columns published, and no earlier byte of it changes.
func TestLogIsAppendOnly(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, idx := testMatrix(8, 16, 9)
	cols := m.Columns()
	var before []byte
	for _, n := range []int{2, 3, 7, 9} {
		if _, err := st.Publish(cols[:n], idx[:n]); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(st.logPath(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(log) != 8*m.Rows*n {
			t.Fatalf("after %d columns the log has %d bytes, want %d", n, len(log), 8*m.Rows*n)
		}
		if !bytes.HasPrefix(log, before) {
			t.Fatalf("publishing %d columns rewrote an earlier one", n)
		}
		before = log
	}
	if _, err := st.Publish(cols[:4], idx[:4]); err == nil {
		t.Fatal("a publish that drops published columns was accepted")
	}
}

// A flipped byte in the log fails the read of its column, by name; a
// reader that already holds that column does not read it again.
func TestLogCorruptionNamesTheColumn(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, idx := testMatrix(9, 10, 6)
	held := publishAll(t, st, m, idx, 4)
	publishAll(t, st, m, idx, 6)
	log, err := os.ReadFile(st.logPath(1))
	if err != nil {
		t.Fatal(err)
	}
	log[8*m.Rows*2+5] ^= 0x10 // column 2, member 6
	if err := os.WriteFile(st.logPath(1), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(nil); err == nil || !strings.Contains(err.Error(), "column 2 (member 6)") {
		t.Fatalf("a flipped byte in column 2 read back as %v", err)
	}
	got, err := st.Read(held)
	if err != nil {
		t.Fatalf("a reader holding columns 0-3 read column 2 again: %v", err)
	}
	if len(got.Cols) != 6 || &got.Cols[2][0] != &held.Cols[2][0] {
		t.Fatal("the held columns were not kept")
	}
}

// A reader that holds a generation reads the next one afresh, even when
// its member indices extend the ones it holds; the older log is gone.
func TestReaderNeverMixesGenerations(t *testing.T) {
	st, _ := Open(t.TempDir())
	m1, idx := testMatrix(10, 12, 5)
	m2, _ := testMatrix(11, 12, 5)
	held := publishAll(t, st, m1, idx, 3)
	st.NewGeneration()
	want := publishAll(t, st, m2, idx, 5)
	if _, err := os.Stat(st.logPath(1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 1's log outlived generation 2's first publish: %v", err)
	}
	got, err := st.Read(held)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Cols {
		if !slices.Equal(got.Cols[j], want.Cols[j]) {
			t.Fatalf("column %d is not generation 2's", j)
		}
	}
}

// A store opened over another's directory continues its numbering, so
// its first generation neither reuses nor keeps the old log.
func TestReopenedStoreStartsANewLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	m, idx := testMatrix(12, 6, 4)
	publishAll(t, st, m, idx, 4)
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.WriteSnapshot(m, idx); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "cols_*.dat"))
	if len(logs) != 1 || filepath.Base(logs[0]) != "cols_2.dat" {
		t.Fatalf("logs after a reopened store's first write: %v", logs)
	}
}

// A store opened over another's directory goes on from its published
// version, so a reader across the restart never sees the version fall.
func TestReopenedStoreContinuesVersions(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	m, idx := testMatrix(13, 6, 4)
	if v := publishAll(t, st, m, idx, 1, 2, 3).Version; v != 3 {
		t.Fatalf("version after three publishes: %d", v)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := again.Publish(m.Columns(), idx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("a reopened store's first publish is version %d, want 4", v)
	}
	for _, s := range []*Store{st, again} {
		snap, err := s.Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != 4 {
			t.Fatalf("Read sees version %d after the reopened publish, want 4", snap.Version)
		}
	}
}
