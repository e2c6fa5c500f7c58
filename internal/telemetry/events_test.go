package telemetry

import (
	"encoding/json"
	"testing"
)

func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emit("member", i, 0, PhaseDone)
	}
	if got := l.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := l.Oldest(); got != 6 {
		t.Fatalf("Oldest = %d, want 6", got)
	}

	evs := l.Snapshot(0)
	if len(evs) != 4 {
		t.Fatalf("Snapshot(0) = %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := int64(6 + i)
		if e.Seq != wantSeq || e.Index != int(wantSeq) {
			t.Fatalf("event %d = seq %d index %d, want seq/index %d", i, e.Seq, e.Index, wantSeq)
		}
		if e.Task != "member" || e.Phase != PhaseDone {
			t.Fatalf("event %d = %+v", i, e)
		}
	}

	if evs := l.Snapshot(8); len(evs) != 2 || evs[0].Seq != 8 {
		t.Fatalf("Snapshot(8) = %+v, want seqs 8,9", evs)
	}
	if evs := l.Snapshot(100); evs != nil {
		t.Fatalf("Snapshot(100) = %+v, want nil", evs)
	}
}

func TestEventLogBeforeWraparound(t *testing.T) {
	l := NewEventLog(8)
	if l.Total() != 0 || l.Oldest() != 0 || l.Snapshot(0) != nil {
		t.Fatal("empty log must report zero state")
	}
	l.Emit("cycle", 1, 0, PhaseRunning)
	l.Emit("cycle", 1, 0, PhaseDone)
	if l.Oldest() != 0 {
		t.Fatalf("Oldest = %d before wraparound, want 0", l.Oldest())
	}
	evs := l.Snapshot(0)
	if len(evs) != 2 || evs[0].Phase != PhaseRunning || evs[1].Phase != PhaseDone {
		t.Fatalf("Snapshot = %+v", evs)
	}
	if evs[0].Unix == 0 {
		t.Fatal("event timestamp missing")
	}
}

// TestEventLogTotalWhileEmitting reads the count while another
// goroutine emits: Total takes the lock Emit advances it under, so
// -race has nothing to report and the last read sees every event.
func TestEventLogTotalWhileEmitting(t *testing.T) {
	l := NewEventLog(16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			l.Emit("member", i, 0, PhaseDone)
		}
	}()
	for prev := int64(0); ; {
		n := l.Total()
		if n < prev {
			t.Fatalf("Total went back from %d to %d", prev, n)
		}
		prev = n
		select {
		case <-done:
			if n := l.Total(); n != 200 {
				t.Fatalf("Total = %d after 200 events", n)
			}
			return
		default:
		}
	}
}

func TestNewEventLogDefaultCapacity(t *testing.T) {
	l := NewEventLog(0)
	if len(l.buf) != DefaultEventCap {
		t.Fatalf("default capacity = %d, want %d", len(l.buf), DefaultEventCap)
	}
}

func TestPhaseNamesAndJSON(t *testing.T) {
	want := map[Phase]string{
		PhaseQueued:     "queued",
		PhaseDispatched: "dispatched",
		PhaseRunning:    "running",
		PhaseRetried:    "retried",
		PhaseDone:       "done",
		PhaseFailed:     "failed",
		PhaseCancelled:  "cancelled",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(200).String() != "unknown" {
		t.Errorf("out-of-range phase = %q", Phase(200).String())
	}

	e := Event{Seq: 3, Unix: 42, Task: "member", Index: 7, Attempt: 1, Phase: PhaseRetried}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["phase"] != "retried" {
		t.Fatalf("phase encodes as %v, want \"retried\"", decoded["phase"])
	}
	if decoded["task"] != "member" || decoded["t_unix_ns"] != float64(42) {
		t.Fatalf("event JSON = %s", raw)
	}

	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Fatalf("round trip: %+v != %+v", back, e)
	}
	var p Phase
	if err := json.Unmarshal([]byte(`"done"`), &p); err != nil || p != PhaseDone {
		t.Fatalf("name decode = %v, %v", p, err)
	}
	if err := json.Unmarshal([]byte(`2`), &p); err != nil || p != PhaseRunning {
		t.Fatalf("numeric decode = %v, %v", p, err)
	}
	if err := json.Unmarshal([]byte(`"wavelet"`), &p); err == nil {
		t.Fatal("unknown phase name must not decode")
	}
	if err := json.Unmarshal([]byte(`7`), &p); err == nil {
		t.Fatal("out-of-range phase number must not decode")
	}
}
