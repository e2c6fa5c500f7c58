// Package jobdir implements the paper's Section 4.2 bookkeeping:
//
//	"Dependencies are tracked using separate (per perturbation index)
//	 files containing the error codes of the singleton scripts ...
//	 These files reside in directories accessible directly or indirectly
//	 from all execution hosts so that state information can be readily
//	 shared."
//
// A Tracker owns such a directory: one status file per member index with
// the member's exit code, plus (optionally) the member's forecast state,
// checksummed. This is what makes an interrupted ESSE run restartable
// "without rerunning all jobs" — completed indices are detected and
// their results reloaded.
package jobdir

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"esse/internal/telemetry"
)

// Tracker manages per-member status and state files in one directory.
type Tracker struct {
	dir string

	// telemetry handles (nil no-ops unless Instrument is called)
	tel         *telemetry.Telemetry
	cCompletes  *telemetry.Counter
	cResets     *telemetry.Counter
	cStateSaves *telemetry.Counter
	cStateLoads *telemetry.Counter
}

// Instrument registers the tracker's metrics in tel and enables spans
// on the Ctx state variants. Call it before the tracker is shared
// between goroutines; a nil tel is a no-op.
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

func (t *Tracker) statePath(index int) string {
	return filepath.Join(t.dir, fmt.Sprintf("member_%06d.state", index))
}

// Complete records the exit code for a member (0 = success). The write
// is atomic (temp file + rename) so concurrent readers never see a torn
// status.
func (t *Tracker) Complete(index, code int) error {
	if index < 0 {
		return fmt.Errorf("jobdir: negative index %d", index)
	}
	tmp := t.statusPath(index) + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(code)+"\n"), 0o644); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	if err := os.Rename(tmp, t.statusPath(index)); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cCompletes.Inc()
	return nil
}

// Status returns the recorded exit code; done is false if the member has
// not completed (no status file).
func (t *Tracker) Status(index int) (code int, done bool, err error) {
	data, err := os.ReadFile(t.statusPath(index))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("jobdir: %w", err)
	}
	code, err = strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, false, fmt.Errorf("jobdir: corrupt status for member %d: %w", index, err)
	}
	return code, true, nil
}

// Reset forgets a member's status and state (used to force a rerun).
func (t *Tracker) Reset(index int) error {
	for _, p := range []string{t.statusPath(index), t.statePath(index)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("jobdir: %w", err)
		}
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
		name := e.Name()
		if !strings.HasPrefix(name, "member_") || !strings.HasSuffix(name, ".status") {
			continue
		}
		idxStr := strings.TrimSuffix(strings.TrimPrefix(name, "member_"), ".status")
		idx, convErr := strconv.Atoi(idxStr)
		if convErr != nil {
			continue
		}
		code, done, sErr := t.Status(idx)
		if sErr != nil || !done {
			continue
		}
		if code == 0 {
			successes = append(successes, idx)
		} else {
			failures = append(failures, idx)
		}
	}
	sort.Ints(successes)
	sort.Ints(failures)
	return successes, failures, nil
}

var stateCRC = crc64.MakeTable(crc64.ISO)

// SaveStateCtx is SaveState wrapped in a span parented under the
// active span in ctx (normally the member that produced the state), so
// checkpoint I/O shows up as a child in the trace tree.
func (t *Tracker) SaveStateCtx(ctx context.Context, index int, state []float64) error {
	_, sp := t.tel.SpanCtx(ctx, "jobdir", "save-state", int64(index), -1)
	defer sp.End()
	return t.SaveState(index, state)
}

// LoadStateCtx is LoadState wrapped in a span, the read-side twin of
// SaveStateCtx (a resumed member's "work" is exactly this load).
func (t *Tracker) LoadStateCtx(ctx context.Context, index int) ([]float64, error) {
	_, sp := t.tel.SpanCtx(ctx, "jobdir", "load-state", int64(index), -1)
	defer sp.End()
	return t.LoadState(index)
}

// SaveState persists a member's forecast state (atomic, checksummed).
func (t *Tracker) SaveState(index int, state []float64) error {
	buf := make([]byte, 8+8*len(state)+8)
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(state)))
	for i, v := range state {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	sum := crc64.Checksum(buf[:8+8*len(state)], stateCRC)
	binary.LittleEndian.PutUint64(buf[8+8*len(state):], sum)
	tmp := t.statePath(index) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	if err := os.Rename(tmp, t.statePath(index)); err != nil {
		return fmt.Errorf("jobdir: %w", err)
	}
	t.cStateSaves.Inc()
	return nil
}

// LoadState reads a member's persisted forecast state back.
func (t *Tracker) LoadState(index int) ([]float64, error) {
	buf, err := os.ReadFile(t.statePath(index))
	if err != nil {
		return nil, fmt.Errorf("jobdir: %w", err)
	}
	if len(buf) < 16 {
		return nil, fmt.Errorf("jobdir: state file for member %d truncated", index)
	}
	n := binary.LittleEndian.Uint64(buf[:8])
	want := 8 + 8*int(n) + 8
	if len(buf) != want {
		return nil, fmt.Errorf("jobdir: state file for member %d has %d bytes, want %d", index, len(buf), want)
	}
	sum := binary.LittleEndian.Uint64(buf[want-8:])
	if crc64.Checksum(buf[:want-8], stateCRC) != sum {
		return nil, fmt.Errorf("jobdir: state checksum mismatch for member %d", index)
	}
	state := make([]float64, n)
	for i := range state {
		state[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8+8*i:]))
	}
	t.cStateLoads.Inc()
	return state, nil
}
