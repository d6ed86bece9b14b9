// Package trace provides a lightweight event ring for the PKRU-Safe
// runtime: call-gate traversals, protection-key faults and single-step
// resumes are recorded into a fixed-size buffer that can be dumped when a
// program dies on an MPK violation — the first question after a crash in
// an enforced build is always "which boundary crossing and which access
// got us here" (§6 treats such crashes as missed-profile bugs to debug).
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// GateEnter: a call gate installed new rights (A = PKRU installed).
	GateEnter Kind = iota
	// GateExit: a call gate restored saved rights (A = PKRU restored).
	GateExit
	// Fault: a protection-key violation was delivered (A = address,
	// B = pkey).
	Fault
	// Resume: the profiler single-stepped past a fault and restored
	// rights (A = address).
	Resume
	// Record: the profiler attributed a fault to an allocation site
	// (A = object base, Note = AllocId).
	Record
	// Recover: the fault supervisor unwound a failed compartment call back
	// to its recovery point (A = PKRU restored, Note = policy outcome).
	Recover
	// Heal: the supervisor migrated a misclassified allocation site MT→MU
	// (A = object base, Note = AllocId).
	Heal
	// Crossing: the crossing sampler attributed a forward-gate argument to
	// a live allocation (A = argument address, B = gate latency in
	// nanoseconds, Note = AllocId).
	Crossing
	// ProfileSwap: the profile store promoted a new active generation
	// (A = new generation, B = previous generation, Note = source).
	ProfileSwap
)

func (k Kind) String() string {
	switch k {
	case GateEnter:
		return "gate-enter"
	case GateExit:
		return "gate-exit"
	case Fault:
		return "fault"
	case Resume:
		return "resume"
	case Record:
		return "record"
	case Recover:
		return "recover"
	case Heal:
		return "heal"
	case Crossing:
		return "crossing"
	case ProfileSwap:
		return "profile-swap"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one runtime occurrence. A and B are kind-specific payloads
// (addresses, PKRU values, keys); Note carries an identifier when one
// exists. When is a monotonic timestamp — the offset from the owning
// ring's creation, stamped by Ring.Emit — so dumped events order and
// space themselves on a timeline even after the ring wraps.
type Event struct {
	Seq  uint64
	When time.Duration // monotonic offset from the ring's epoch
	Kind Kind
	A, B uint64
	Note string
}

func (e Event) String() string {
	prefix := fmt.Sprintf("#%d +%-12s %-10s", e.Seq, e.When, e.Kind)
	switch e.Kind {
	case GateEnter, GateExit:
		return fmt.Sprintf("%s pkru=%#08x", prefix, e.A)
	case Fault:
		return fmt.Sprintf("%s addr=%#x pkey=%d", prefix, e.A, e.B)
	case Record, Heal:
		return fmt.Sprintf("%s base=%#x site=%s", prefix, e.A, e.Note)
	case Recover:
		return fmt.Sprintf("%s pkru=%#08x outcome=%s", prefix, e.A, e.Note)
	case Crossing:
		return fmt.Sprintf("%s addr=%#x site=%s lat=%v", prefix, e.A, e.Note, time.Duration(e.B))
	case ProfileSwap:
		return fmt.Sprintf("%s generation=%d prev=%d source=%s", prefix, e.A, e.B, e.Note)
	default:
		return fmt.Sprintf("%s addr=%#x", prefix, e.A)
	}
}

// Ring is a fixed-capacity, thread-safe event buffer that overwrites its
// oldest entries. The zero value is unusable; construct with NewRing.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  uint64    // total events ever emitted
	epoch time.Time // monotonic reference When offsets are measured from
}

// NewRing creates a ring holding the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n), epoch: time.Now()}
}

// Emit appends an event, stamping its sequence number and its monotonic
// When offset. A caller-provided When is overwritten: the ring is the
// single clock, so every retained event is comparable.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	// The clock is read under the lock so When and Seq order identically:
	// a dump is a timeline, and a timeline that disagrees with the
	// sequence numbers would be worse than no timestamps at all.
	e.When = time.Since(r.epoch)
	e.Seq = r.next
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns the number of events that have been overwritten on
// wraparound and are no longer retained. It is monotone: once the ring
// wraps, every further Emit drops the then-oldest event.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.buf)); r.next > n {
		return r.next - n
	}
	return 0
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	events, _ := r.SnapshotDropped()
	return events
}

// SnapshotDropped returns the retained events (oldest first) together
// with the dropped count, both taken under one lock acquisition so the
// pair is mutually consistent even while other goroutines keep emitting:
// dropped always equals the first returned event's sequence number once
// the ring has wrapped.
func (r *Ring) SnapshotDropped() (events []Event, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	events = make([]Event, 0, n)
	start := uint64(0)
	if r.next > n {
		start = r.next - n
		dropped = start
	}
	for s := start; s < r.next; s++ {
		events = append(events, r.buf[s%n])
	}
	return events, dropped
}

// Dump writes the retained events to w, oldest first. If the ring has
// wrapped, a leading line reports how many earlier events were dropped so
// a truncated crash dump is never mistaken for the full history. The
// events and the dropped count come from one atomic snapshot, so a dump
// concurrent with Emit never shows a torn view. Timestamps are rebased to
// the first retained event (the first line always reads +0s): a dump is
// read as "what happened, how far apart", and an absolute offset from a
// ring epoch the reader cannot see would only obscure that.
func (r *Ring) Dump(w io.Writer) {
	events, dropped := r.SnapshotDropped()
	WriteEvents(w, events, dropped, len(r.buf))
}

// WriteEvents renders events in Dump's text format: an optional leading
// dropped-count line, then one line per event with When rebased to the
// first event's timestamp. Exported so goldens can pin the format on
// constructed events and so other dumps (the obs /trace endpoint, crash
// reports) render identically to Ring.Dump.
func WriteEvents(w io.Writer, events []Event, dropped uint64, capacity int) {
	if dropped > 0 {
		fmt.Fprintf(w, "... %d earlier event(s) dropped (ring capacity %d)\n", dropped, capacity)
	}
	var base time.Duration
	if len(events) > 0 {
		base = events[0].When
	}
	for _, e := range events {
		e.When -= base
		fmt.Fprintln(w, e.String())
	}
}
