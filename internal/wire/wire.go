// Package wire defines the blessed JSON wire types for the
// dispatcher/worker split (ROADMAP item 1): the task a dispatcher
// offers, the lease a worker holds while computing it, and the result
// it reports back. Every type here round-trips through
// Encode*/Decode*, carries only concrete exported fields, and is
// validated on both sides of the socket — the invariants esselint's
// jsonwire analyzer enforces tree-wide.
//
// NaN/Inf policy: ESSE state is NaN/Inf-prone — error variances
// collapse, condition numbers blow up, timing ratios divide by zero —
// and encoding/json fails AT RUNTIME on a non-finite float, turning a
// numerical wobble into a dropped lease. Every float crossing the
// wire must therefore be finite: Validate rejects NaN and ±Inf on
// both the encode path (before the value is committed to the socket,
// where the failure is attributable) and the decode path (defense in
// depth against peers not built from this package). Use
// Finite/CheckFinite for new fields; jsonwire treats a field routed
// through them as provably NaN/Inf-free.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Finite reports whether v is neither NaN nor ±Inf.
func Finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CheckFinite returns an error naming field when v is not finite.
func CheckFinite(field string, v float64) error {
	if !Finite(v) {
		return fmt.Errorf("wire: field %s is not finite (%v)", field, v)
	}
	return nil
}

// TraceContext is the causal identity riding with every wire payload:
// the trace the work belongs to and the span that caused it, in the
// telemetry package's hex-string form (32 lowercase hex digits of
// trace ID, 16 of span ID — the traceparent field grammar). The zero
// value means "untraced" and is always legal, so legacy peers that
// never heard of tracing keep validating; a non-zero context must be
// well-formed in BOTH halves — a trace ID without a span ID (or vice
// versa) is corrupt, not partial.
type TraceContext struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// IsZero reports whether the context is the legal "untraced" value.
func (tc *TraceContext) IsZero() bool {
	return tc.TraceID == "" && tc.SpanID == ""
}

// Validate enforces the hex grammar. where names the enclosing payload
// for attributable errors.
func (tc *TraceContext) Validate(where string) error {
	if tc.IsZero() {
		return nil
	}
	if tc.TraceID == "" || tc.SpanID == "" {
		return fmt.Errorf("wire: %s has a half-set trace context (trace_id=%q span_id=%q)", where, tc.TraceID, tc.SpanID)
	}
	if !validHex(tc.TraceID, 32) {
		return fmt.Errorf("wire: %s has malformed trace_id %q", where, tc.TraceID)
	}
	if !validHex(tc.SpanID, 16) {
		return fmt.Errorf("wire: %s has malformed span_id %q", where, tc.SpanID)
	}
	if allZeroHex(tc.TraceID) || allZeroHex(tc.SpanID) {
		return fmt.Errorf("wire: %s has all-zero trace context ids", where)
	}
	return nil
}

// validHex reports whether s is exactly n lowercase hex digits.
// Uppercase is rejected: the canonical form is lowercase-only and
// accepting both would let two spellings of one ID ride the wire.
func validHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// allZeroHex reports whether s is nothing but '0' digits — the invalid
// ID both here and in the traceparent grammar.
func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// TaskKind classifies the many-task work units of the ESSE pipeline.
type TaskKind uint8

const (
	// KindPerturb generates one perturbed initial condition.
	KindPerturb TaskKind = iota
	// KindForecast integrates one ensemble member forward.
	KindForecast
	// KindTangentLinear runs one tangent-linear acoustics solve.
	KindTangentLinear
)

func (k TaskKind) String() string {
	switch k {
	case KindPerturb:
		return "perturb"
	case KindForecast:
		return "forecast"
	case KindTangentLinear:
		return "tangent-linear"
	}
	return fmt.Sprintf("TaskKind(%d)", uint8(k))
}

// valid reports whether k names a defined kind (the decode-side gate:
// a peer can send any integer).
func (k TaskKind) valid() bool {
	return k <= KindTangentLinear
}

// LeaseState is the lifecycle of one task lease on the dispatcher.
// The legal transitions are declared once, below (LeaseTransitions).
// LeaseCompleted has no successors: a completed lease is terminal.
type LeaseState uint8

const (
	// LeasePending: offered, not yet claimed by a worker.
	LeasePending LeaseState = iota
	// LeaseActive: claimed; the worker must renew before the deadline.
	LeaseActive
	// LeaseExpired: the renewal deadline passed; the task is
	// re-offerable.
	LeaseExpired
	// LeaseCompleted: a result was accepted.
	LeaseCompleted
	// LeaseFailed: the worker reported failure; retry policy applies.
	LeaseFailed
)

func (s LeaseState) String() string {
	switch s {
	case LeasePending:
		return "pending"
	case LeaseActive:
		return "active"
	case LeaseExpired:
		return "expired"
	case LeaseCompleted:
		return "completed"
	case LeaseFailed:
		return "failed"
	}
	return fmt.Sprintf("LeaseState(%d)", uint8(s))
}

func (s LeaseState) valid() bool {
	return s <= LeaseFailed
}

// LeaseTransitions is the runtime form of the lease lifecycle: every
// legal from→to pair. LeaseActive renews onto itself; LeaseExpired and
// LeaseFailed re-offer the task; LeaseCompleted is absent because it
// has no successors.
var LeaseTransitions = map[LeaseState][]LeaseState{
	LeasePending: {LeaseActive},
	LeaseActive:  {LeaseActive, LeaseExpired, LeaseCompleted, LeaseFailed},
	LeaseExpired: {LeasePending},
	LeaseFailed:  {LeasePending},
}

// CanTransition reports whether a lease may move from from to to.
func CanTransition(from, to LeaseState) bool {
	for _, next := range LeaseTransitions[from] {
		if next == to {
			return true
		}
	}
	return false
}

// Terminal reports whether s has no legal successors: a lease in a
// terminal state never moves again.
func (s LeaseState) Terminal() bool {
	return len(LeaseTransitions[s]) == 0
}

// Task is one unit of many-task work as the dispatcher offers it.
type Task struct {
	// ID is the dispatcher-unique task identifier.
	ID string `json:"id"`
	// Kind selects the computation.
	Kind TaskKind `json:"kind"`
	// Member is the ensemble-member index the task belongs to.
	Member int `json:"member"`
	// Attempt counts prior offers of this task (0 = first).
	Attempt int `json:"attempt"`
	// Seed is the deterministic RNG stream seed for the member, so a
	// retried task reproduces the original draw bit-for-bit.
	Seed uint64 `json:"seed"`
	// Dt is the model time step in seconds; Horizon the forecast
	// length in seconds. Both must be finite and positive.
	Dt      float64 `json:"dt"`
	Horizon float64 `json:"horizon"`
	// Trace carries the causal identity of the dispatch that created
	// the task; the zero value is a legal untraced task.
	Trace TraceContext `json:"trace"`
}

// Validate enforces the wire invariants in both directions.
func (t *Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("wire: task has empty id")
	}
	if !t.Kind.valid() {
		return fmt.Errorf("wire: task %s has unknown kind %d", t.ID, uint8(t.Kind))
	}
	if t.Member < 0 {
		return fmt.Errorf("wire: task %s has negative member %d", t.ID, t.Member)
	}
	if t.Attempt < 0 {
		return fmt.Errorf("wire: task %s has negative attempt %d", t.ID, t.Attempt)
	}
	if err := CheckFinite("dt", t.Dt); err != nil {
		return err
	}
	if err := CheckFinite("horizon", t.Horizon); err != nil {
		return err
	}
	if t.Dt <= 0 || t.Horizon <= 0 {
		return fmt.Errorf("wire: task %s has non-positive dt=%v or horizon=%v", t.ID, t.Dt, t.Horizon)
	}
	return t.Trace.Validate("task " + t.ID)
}

// Lease is the dispatcher's record of one offered task, as reported
// to workers and monitors.
type Lease struct {
	TaskID string     `json:"task_id"`
	Worker string     `json:"worker"`
	State  LeaseState `json:"state"`
	// DeadlineUnixMS is the renewal deadline, milliseconds since the
	// Unix epoch. Integer on purpose: wall-clock times never ride the
	// wire as floats.
	DeadlineUnixMS int64 `json:"deadline_unix_ms"`
	// Trace carries the causal identity of the offered task, so lease
	// listings correlate with the span tree. Zero is legal.
	Trace TraceContext `json:"trace"`
}

// Validate enforces the wire invariants in both directions.
func (l *Lease) Validate() error {
	if l.TaskID == "" {
		return fmt.Errorf("wire: lease has empty task_id")
	}
	if !l.State.valid() {
		return fmt.Errorf("wire: lease %s has unknown state %d", l.TaskID, uint8(l.State))
	}
	if l.State != LeasePending && l.Worker == "" {
		return fmt.Errorf("wire: lease %s in state %s has no worker", l.TaskID, l.State)
	}
	return l.Trace.Validate("lease " + l.TaskID)
}

// Result is a worker's report for one completed (or failed) task.
type Result struct {
	TaskID string `json:"task_id"`
	Worker string `json:"worker"`
	OK     bool   `json:"ok"`
	// Error carries the failure description when OK is false.
	Error string `json:"error,omitempty"`
	// Rho is the ensemble convergence metric of the member; ElapsedSec
	// the wall time spent. Both must be finite.
	Rho        float64 `json:"rho"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Trace echoes the task's causal identity back to the dispatcher,
	// closing the loop worker-side. Zero is legal.
	Trace TraceContext `json:"trace"`
}

// Validate enforces the wire invariants in both directions.
func (r *Result) Validate() error {
	if r.TaskID == "" {
		return fmt.Errorf("wire: result has empty task_id")
	}
	if r.Worker == "" {
		return fmt.Errorf("wire: result %s has no worker", r.TaskID)
	}
	if !r.OK && r.Error == "" {
		return fmt.Errorf("wire: failed result %s carries no error", r.TaskID)
	}
	if err := CheckFinite("rho", r.Rho); err != nil {
		return err
	}
	if err := CheckFinite("elapsed_sec", r.ElapsedSec); err != nil {
		return err
	}
	if r.ElapsedSec < 0 {
		return fmt.Errorf("wire: result %s has negative elapsed_sec %v", r.TaskID, r.ElapsedSec)
	}
	return r.Trace.Validate("result " + r.TaskID)
}

// EncodeTask validates t and writes it to w as one JSON line.
func EncodeTask(w io.Writer, t *Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(t)
}

// DecodeTask reads one JSON task from r and validates it.
func DecodeTask(r io.Reader, t *Task) error {
	if err := json.NewDecoder(r).Decode(t); err != nil {
		return fmt.Errorf("wire: decoding task: %w", err)
	}
	return t.Validate()
}

// EncodeLease validates l and writes it to w as one JSON line.
func EncodeLease(w io.Writer, l *Lease) error {
	if err := l.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(l)
}

// DecodeLease reads one JSON lease from r and validates it.
func DecodeLease(r io.Reader, l *Lease) error {
	if err := json.NewDecoder(r).Decode(l); err != nil {
		return fmt.Errorf("wire: decoding lease: %w", err)
	}
	return l.Validate()
}

// EncodeResult validates res and writes it to w as one JSON line.
func EncodeResult(w io.Writer, res *Result) error {
	if err := res.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// DecodeResult reads one JSON result from r and validates it.
func DecodeResult(r io.Reader, res *Result) error {
	if err := json.NewDecoder(r).Decode(res); err != nil {
		return fmt.Errorf("wire: decoding result: %w", err)
	}
	return res.Validate()
}
