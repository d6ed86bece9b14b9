package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestDroppedCounts(t *testing.T) {
	r := NewRing(4)
	if r.Dropped() != 0 {
		t.Fatalf("fresh ring dropped = %d", r.Dropped())
	}
	for i := 0; i < 4; i++ {
		r.Emit(Event{Kind: GateEnter})
	}
	if r.Dropped() != 0 {
		t.Fatalf("exactly-full ring dropped = %d", r.Dropped())
	}
	for i := 0; i < 3; i++ {
		r.Emit(Event{Kind: GateExit})
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if r.Total() != 7 || r.Len() != 4 {
		t.Fatalf("total=%d len=%d", r.Total(), r.Len())
	}
}

func TestDumpReportsDropped(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: Fault, A: uint64(i), B: 1})
	}
	var b strings.Builder
	r.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "3 earlier event(s) dropped") {
		t.Fatalf("dump missing dropped note:\n%s", out)
	}
	if !strings.Contains(out, "ring capacity 2") {
		t.Fatalf("dump missing capacity:\n%s", out)
	}
	// An unwrapped ring stays silent about drops.
	r2 := NewRing(8)
	r2.Emit(Event{Kind: Fault})
	var b2 strings.Builder
	r2.Dump(&b2)
	if strings.Contains(b2.String(), "dropped") {
		t.Fatalf("unwrapped ring reported drops:\n%s", b2.String())
	}
}

// TestConcurrentDropped exercises Emit racing against the read-side
// accessors; meaningful under -race.
func TestConcurrentDropped(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Emit(Event{Kind: GateExit, A: uint64(i)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = r.Dropped()
			_ = r.Len()
			if i%256 == 0 {
				var b strings.Builder
				r.Dump(&b)
			}
		}
	}()
	wg.Wait()
	if got := r.Dropped(); got != 8000-16 {
		t.Fatalf("dropped = %d, want %d", got, 8000-16)
	}
}
