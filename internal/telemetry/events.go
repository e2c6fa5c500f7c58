package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// DefaultEventCap is the event-ring capacity used when NewEventLog is
// given a non-positive one. At ~64 bytes per event the default ring
// pins ~256 KiB — enough for several full forecast cycles of member
// lifecycles before wraparound.
const DefaultEventCap = 4096

// Phase is one station of the task lifecycle: queued → dispatched →
// running → (retried →) done | failed | cancelled. It mirrors the
// member states of the paper's Section 4 workflow: queued members wait
// for a pool slot, dispatched members have been accepted by a pool
// worker (emitted worker-side so each task's phases are ordered),
// retried members consumed one of their failure-tolerance attempts,
// cancelled members were overtaken by convergence or the deadline.
// PhaseDone, PhaseFailed and PhaseCancelled are terminal.
type Phase uint8

const (
	// PhaseQueued marks a task eligible for dispatch.
	PhaseQueued Phase = iota
	// PhaseDispatched marks a task handed to the worker pool.
	PhaseDispatched
	// PhaseRunning marks a worker starting the task.
	PhaseRunning
	// PhaseRetried marks a failed attempt being retried.
	PhaseRetried
	// PhaseDone marks successful completion.
	PhaseDone
	// PhaseFailed marks abandonment after retries.
	PhaseFailed
	// PhaseCancelled marks convergence/deadline/context cancellation.
	PhaseCancelled
)

// phaseNames is indexed by Phase; keep in sync with the constants.
var phaseNames = [...]string{
	"queued", "dispatched", "running", "retried", "done", "failed", "cancelled",
}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// MarshalJSON renders the phase as its name.
func (p Phase) MarshalJSON() ([]byte, error) {
	name := p.String()
	out := make([]byte, 0, len(name)+2)
	out = append(out, '"')
	out = append(out, name...)
	out = append(out, '"')
	return out, nil
}

// UnmarshalJSON inverts MarshalJSON, accepting a phase name or its
// numeric value, so /events payloads decode back into Event.
func (p *Phase) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		name := s[1 : len(s)-1]
		for i := range phaseNames {
			if phaseNames[i] == name {
				*p = Phase(i)
				return nil
			}
		}
		return fmt.Errorf("telemetry: unknown phase %q", name)
	}
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil || v >= uint64(len(phaseNames)) {
		return fmt.Errorf("telemetry: bad phase %s", s)
	}
	*p = Phase(v)
	return nil
}

// Event is one lifecycle transition. Task names the task family
// ("member", "svd", "cycle", "climate", ...), Index the instance
// (member index, cycle number, climate task id), Attempt the retry
// ordinal (0 for the first try).
type Event struct {
	Seq     int64  `json:"seq"`
	Unix    int64  `json:"t_unix_ns"`
	Task    string `json:"task"`
	Index   int    `json:"index"`
	Attempt int    `json:"attempt"`
	Phase   Phase  `json:"phase"`
}

// EventLog is a bounded ring of lifecycle events: emission is O(1),
// never blocks, never allocates, and overwrites the oldest entry when
// full — a monitoring channel must not be able to stall the engine it
// observes. The nil *EventLog is a no-op.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int64 // total events ever emitted; buf slot = next % len(buf)
}

// NewEventLog returns a ring holding the last capacity events
// (DefaultEventCap when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Emit records one event. Safe for concurrent use; allocation-free.
func (l *EventLog) Emit(task string, index, attempt int, phase Phase) {
	if l == nil {
		return
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.buf[int(l.next%int64(len(l.buf)))] = Event{
		Seq:     l.next,
		Unix:    now,
		Task:    task,
		Index:   index,
		Attempt: attempt,
		Phase:   phase,
	}
	l.next++
	l.mu.Unlock()
}

// Total returns how many events have ever been emitted (including any
// already overwritten).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Oldest returns the sequence number of the oldest event still held.
func (l *EventLog) Oldest() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLocked()
}

func (l *EventLog) oldestLocked() int64 {
	if l.next <= int64(len(l.buf)) {
		return 0
	}
	return l.next - int64(len(l.buf))
}

// Snapshot copies out the retained events with Seq >= since, in
// sequence order. A since of 0 returns everything still in the ring.
func (l *EventLog) Snapshot(since int64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := l.oldestLocked()
	if since > lo {
		lo = since
	}
	if lo >= l.next {
		return nil
	}
	out := make([]Event, 0, l.next-lo)
	for seq := lo; seq < l.next; seq++ {
		out = append(out, l.buf[int(seq%int64(len(l.buf)))])
	}
	return out
}
