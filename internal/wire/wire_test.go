package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func validTask() *Task {
	return &Task{ID: "t-7", Kind: KindForecast, Member: 3, Seed: 42, Dt: 0.5, Horizon: 3600}
}

func validLease() *Lease {
	return &Lease{TaskID: "t-7", Worker: "w-1", State: LeaseActive, DeadlineUnixMS: 1754500000000}
}

func validResult() *Result {
	return &Result{TaskID: "t-7", Worker: "w-1", OK: true, Rho: 0.93, ElapsedSec: 12.25}
}

func TestTaskRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := validTask()
	if err := EncodeTask(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Task
	if err := DecodeTask(&buf, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != *in {
		t.Fatalf("round trip changed the task: %+v != %+v", out, *in)
	}
}

func TestLeaseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := validLease()
	if err := EncodeLease(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Lease
	if err := DecodeLease(&buf, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != *in {
		t.Fatalf("round trip changed the lease: %+v != %+v", out, *in)
	}
}

func TestResultRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := validResult()
	if err := EncodeResult(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Result
	if err := DecodeResult(&buf, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != *in {
		t.Fatalf("round trip changed the result: %+v != %+v", out, *in)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"nan dt", func(tk *Task) { tk.Dt = math.NaN() }},
		{"inf horizon", func(tk *Task) { tk.Horizon = math.Inf(1) }},
		{"neg inf dt", func(tk *Task) { tk.Dt = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tk := validTask()
			tc.mut(tk)
			var buf bytes.Buffer
			err := EncodeTask(&buf, tk)
			if err == nil {
				t.Fatal("EncodeTask accepted a non-finite float")
			}
			if !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("error does not name the finiteness policy: %v", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("invalid task still wrote %d bytes to the socket", buf.Len())
			}
		})
	}

	res := validResult()
	res.Rho = math.NaN()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err == nil {
		t.Fatal("EncodeResult accepted NaN rho")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"task empty id", func() error { tk := validTask(); tk.ID = ""; return tk.Validate() }()},
		{"task unknown kind", func() error { tk := validTask(); tk.Kind = TaskKind(99); return tk.Validate() }()},
		{"task negative member", func() error { tk := validTask(); tk.Member = -1; return tk.Validate() }()},
		{"task zero dt", func() error { tk := validTask(); tk.Dt = 0; return tk.Validate() }()},
		{"lease unknown state", func() error { l := validLease(); l.State = LeaseState(99); return l.Validate() }()},
		{"lease active without worker", func() error { l := validLease(); l.Worker = ""; return l.Validate() }()},
		{"result failed without error", func() error { r := validResult(); r.OK = false; return r.Validate() }()},
		{"result negative elapsed", func() error { r := validResult(); r.ElapsedSec = -1; return r.Validate() }()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: Validate accepted an invalid value", tc.name)
		}
	}
	if err := validTask().Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	if err := validLease().Validate(); err != nil {
		t.Errorf("valid lease rejected: %v", err)
	}
	if err := validResult().Validate(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
}

func TestDecodeValidates(t *testing.T) {
	var tk Task
	err := DecodeTask(strings.NewReader(`{"id":"t-1","kind":99,"member":0,"dt":1,"horizon":10}`), &tk)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("DecodeTask accepted an unknown kind: %v", err)
	}
	err = DecodeTask(strings.NewReader(`{"id":`), &tk)
	if err == nil || !strings.Contains(err.Error(), "decoding task") {
		t.Fatalf("DecodeTask on truncated input: %v", err)
	}
}

func TestEnumStrings(t *testing.T) {
	kinds := map[TaskKind]string{
		KindPerturb: "perturb", KindForecast: "forecast", KindTangentLinear: "tangent-linear",
		TaskKind(9): "TaskKind(9)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("TaskKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
	states := map[LeaseState]string{
		LeasePending: "pending", LeaseActive: "active", LeaseExpired: "expired",
		LeaseCompleted: "completed", LeaseFailed: "failed", LeaseState(9): "LeaseState(9)",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("LeaseState(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
}

// TestLeaseTransitionTable asserts every (from, to) pair of the lease
// lifecycle explicitly, so the runtime table cannot drift without this
// test naming the pair that moved.
func TestLeaseTransitionTable(t *testing.T) {
	states := []LeaseState{LeasePending, LeaseActive, LeaseExpired, LeaseCompleted, LeaseFailed}
	legal := map[[2]LeaseState]bool{
		{LeasePending, LeaseActive}:   true,
		{LeaseActive, LeaseActive}:    true,
		{LeaseActive, LeaseExpired}:   true,
		{LeaseActive, LeaseCompleted}: true,
		{LeaseActive, LeaseFailed}:    true,
		{LeaseExpired, LeasePending}:  true,
		{LeaseFailed, LeasePending}:   true,
	}
	for _, from := range states {
		for _, to := range states {
			want := legal[[2]LeaseState{from, to}]
			if got := CanTransition(from, to); got != want {
				t.Errorf("CanTransition(%v, %v) = %v, want %v", from, to, got, want)
			}
		}
	}
	// Terminal states produce no successors, and only LeaseCompleted is
	// terminal.
	for _, s := range states {
		wantTerminal := s == LeaseCompleted
		if got := s.Terminal(); got != wantTerminal {
			t.Errorf("%v.Terminal() = %v, want %v", s, got, wantTerminal)
		}
		if wantTerminal && len(LeaseTransitions[s]) != 0 {
			t.Errorf("terminal state %v has successors %v", s, LeaseTransitions[s])
		}
	}
	// The table holds exactly the legal arcs and keys no state outside
	// the declared enum.
	total, keyed := 0, 0
	for _, s := range states {
		total += len(LeaseTransitions[s])
		if _, ok := LeaseTransitions[s]; ok {
			keyed++
		}
	}
	if total != len(legal) {
		t.Errorf("transition table carries %d arcs, want %d", total, len(legal))
	}
	if keyed != len(LeaseTransitions) {
		t.Errorf("transition table keys a state outside the declared enum")
	}
}
