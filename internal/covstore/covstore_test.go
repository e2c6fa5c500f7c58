package covstore

import (
	"errors"
	"io"
	"os"
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
	// snapshot (never a torn file).
	st, _ := Open(t.TempDir())
	const writes = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			m, idx := testMatrix(uint64(i), 50, 1+i%7)
			if _, err := st.WriteSnapshot(m, idx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var lastVersion int64
	reads := 0
	for lastVersion < writes {
		m, idx, v, err := st.ReadSafe()
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		if v < lastVersion {
			t.Fatalf("version went backwards: %d after %d", v, lastVersion)
		}
		if len(idx) != m.Cols {
			t.Fatal("inconsistent snapshot contents")
		}
		lastVersion = v
		reads++
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("no successful concurrent reads")
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

// writeSnapshot hands binary.Write the header and the member indices as
// one slice each, so its allocation count is fixed, whatever the number
// of members.
func TestWriteSnapshotAllocs(t *testing.T) {
	for _, members := range []int{2, 64} {
		m, idx := testMatrix(1, 20, members)
		got := testing.AllocsPerRun(20, func() {
			if err := writeSnapshot(io.Discard, 1, m, idx); err != nil {
				t.Fatal(err)
			}
		})
		if got != 7 {
			t.Errorf("writeSnapshot with %d members: %.0f allocs/op, want 7", members, got)
		}
	}
}
