// Package jobdir implements the paper's Section 4.2 bookkeeping:
//
//	"Dependencies are tracked using separate (per perturbation index)
//	 files containing the error codes of the singleton scripts ...
//	 These files reside in directories accessible directly or indirectly
//	 from all execution hosts so that state information can be readily
//	 shared."
//
// A Tracker owns such a directory: one status file per member index,
// whose first line is the member's exit code. After a success the line
// may be followed by the member's forecast state, checksummed. This is
// what makes an interrupted ESSE run restartable "without rerunning all
// jobs" — completed indices are detected and their results reloaded.
package jobdir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"esse/internal/telemetry"
)

// Tracker manages per-member status files in one directory.
type Tracker struct {
	dir string

	// telemetry handles (nil no-ops unless Instrument is called)
	tel         *telemetry.Telemetry
	cCompletes  *telemetry.Counter
	cResets     *telemetry.Counter
	cStateSaves *telemetry.Counter
	cStateLoads *telemetry.Counter
}

// Instrument registers the tracker's metrics in tel and enables the
// spans of ResumableRunner's loads and saves. Call it before the
// tracker is shared between goroutines; a nil tel is a no-op.
func (t *Tracker) Instrument(tel *telemetry.Telemetry) {
	t.tel = tel
	t.cCompletes = tel.Counter("esse_jobdir_completes_total", "Member status files recorded.")
	t.cResets = tel.Counter("esse_jobdir_resets_total", "Member statuses forgotten to force a rerun.")
	t.cStateSaves = tel.Counter("esse_jobdir_state_saves_total", "Member forecast states persisted.")
	t.cStateLoads = tel.Counter("esse_jobdir_state_loads_total", "Member forecast states reloaded.")
}

// Open creates (or reopens) a tracker directory.
func Open(dir string) (*Tracker, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobdir: %w", err)
	}
	return &Tracker{dir: dir}, nil
}

func (t *Tracker) statusPath(index int) string {
	return filepath.Join(t.dir, fmt.Sprintf("member_%06d.status", index))
}

// write makes buf the status file of member index. The write is atomic
// (temp file + rename) so concurrent readers never see a torn status.
func (t *Tracker) write(index int, buf []byte) error {
	if index < 0 {
		return fmt.Errorf("jobdir: negative index %d", index)
	}
	path := t.statusPath(index)
	if err := os.WriteFile(path+".tmp", buf, 0o644); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cCompletes.Inc()
	return nil
}

// Complete records a member's exit code (0 = success) without a state.
func (t *Tracker) Complete(index, code int) error {
	return t.write(index, append(strconv.AppendInt(nil, int64(code), 10), '\n'))
}

// read parses the exit code on the first line of member index's status
// file and returns the bytes after that line: all of them when whole is
// set, else at most the few read with the line. done is false when
// there is no file.
func (t *Tracker) read(index int, whole bool) (code int, rest []byte, done bool, err error) {
	f, err := os.Open(t.statusPath(index))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("jobdir: %w", err)
	}
	//esselint:allow errdrop read-only file; Close cannot lose data
	defer f.Close()
	size := int64(24) // longer than the status line of any int
	if whole {
		fi, err := f.Stat()
		if err != nil {
			return 0, nil, false, fmt.Errorf("jobdir: %w", err)
		}
		size = fi.Size()
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return 0, nil, false, fmt.Errorf("jobdir: %w", err)
	}
	line, rest, _ := bytes.Cut(buf[:n], []byte{'\n'})
	if code, err = strconv.Atoi(strings.TrimSpace(string(line))); err != nil {
		return 0, nil, false, fmt.Errorf("jobdir: corrupt status for member %d: %w", index, err)
	}
	return code, rest, true, nil
}

// Reset forgets a member's status and state (used to force a rerun).
func (t *Tracker) Reset(index int) error {
	if err := os.Remove(t.statusPath(index)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cResets.Inc()
	return nil
}

// Completed scans the directory and returns the indices with a recorded
// status, split into successes (code 0) and failures.
func (t *Tracker) Completed() (successes, failures []int, err error) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobdir: %w", err)
	}
	for _, e := range entries {
		num, member := strings.CutPrefix(e.Name(), "member_")
		num, status := strings.CutSuffix(num, ".status")
		idx, convErr := strconv.Atoi(num)
		if !member || !status || convErr != nil {
			continue
		}
		switch code, _, done, rErr := t.read(idx, false); {
		case rErr != nil || !done:
		case code == 0:
			successes = append(successes, idx)
		default:
			failures = append(failures, idx)
		}
	}
	sort.Ints(successes)
	sort.Ints(failures)
	return successes, failures, nil
}

var stateCRC = crc64.MakeTable(crc64.ISO)

// SaveState records a member's success with its forecast state in one
// atomic write: the status line "0", then the state's length, its values
// as little-endian float64s and a CRC-64 of both.
func (t *Tracker) SaveState(index int, state []float64) error {
	buf := append(make([]byte, 0, 2+8+8*len(state)+8), "0\n"...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(state)))
	for _, v := range state {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf[2:], stateCRC))
	if err := t.write(index, buf); err != nil {
		return err
	}
	t.cStateSaves.Inc()
	return nil
}

// LoadState reads a member's status file once and returns the forecast
// state behind its success. A member with no status or a nonzero code
// has none: nil, nil. A corrupt status, or a success whose state is
// missing or damaged, is an error.
func (t *Tracker) LoadState(index int) ([]float64, error) {
	code, rec, done, err := t.read(index, true)
	if err != nil || !done || code != 0 {
		return nil, err
	}
	n := len(rec)/8 - 2
	if len(rec) < 16 || len(rec)%8 != 0 || binary.LittleEndian.Uint64(rec) != uint64(n) {
		return nil, fmt.Errorf("jobdir: state of member %d is %d bytes, not a whole record", index, len(rec))
	}
	if crc64.Checksum(rec[:len(rec)-8], stateCRC) != binary.LittleEndian.Uint64(rec[len(rec)-8:]) {
		return nil, fmt.Errorf("jobdir: state checksum mismatch for member %d", index)
	}
	state := make([]float64, n)
	for i := range state {
		state[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*i:]))
	}
	t.cStateLoads.Inc()
	return state, nil
}
