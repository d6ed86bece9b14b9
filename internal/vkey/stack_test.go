package vkey

import (
	"errors"
	"testing"

	"repro/internal/mpk"
	"repro/internal/vm"
)

// TestEnterLeaveAllocatesNothing: an Enter/Leave pair on a register that
// has entered before reuses the emptied stack's storage.
func TestEnterLeaveAllocatesNothing(t *testing.T) {
	tab, space := testTable(t)
	id := tab.Alloc("a")
	base, size := reserveRange(t, space, 0)
	if err := tab.Attach(id, base, size); err != nil {
		t.Fatal(err)
	}
	th := vm.NewThread(space, nil)
	pair := func() {
		if _, err := tab.Enter(th, id); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Leave(th, mpk.PermitAll); err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm: binds the slot and allocates the first stack
	if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
		t.Errorf("warm Enter/Leave allocates %v objects, want 0", allocs)
	}
}

// TestEmptiedStackLeavesNoTrace: a register whose stack empties — by
// Leave or by TruncateTo — is gone from the table: no stack entry, no
// revocation binding, no depth in Occupancy, and its keys are free to
// Free. Only the storage stays, in spare, and the next register to enter
// takes it.
func TestEmptiedStackLeavesNoTrace(t *testing.T) {
	tab, space := testTable(t)
	var ids [2]ID
	for i := range ids {
		ids[i] = tab.Alloc("k")
		base, size := reserveRange(t, space, i)
		if err := tab.Attach(ids[i], base, size); err != nil {
			t.Fatal(err)
		}
	}
	a, b := vm.NewThread(space, nil), vm.NewThread(space, nil)
	for _, id := range ids {
		if _, err := tab.Enter(a, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.Leave(a, mpk.PermitAll); err != nil {
		t.Fatal(err)
	}
	if err := tab.Free(ids[0]); !errors.Is(err, ErrKeyBusy) {
		t.Fatalf("Free of a key live on a stack: err = %v, want ErrKeyBusy", err)
	}
	tab.TruncateTo(a, 0)
	gone := func(reg mpk.RightsRegister) {
		t.Helper()
		_, stacked := tab.stacks[reg]
		_, bound := tab.threads[reg]
		if stacked || bound {
			t.Errorf("emptied register still held: stack %v, bound %v", stacked, bound)
		}
		if d := tab.Occupancy().StackDepths; len(d) != 0 {
			t.Errorf("Occupancy().StackDepths = %v, want none", d)
		}
		if got := tab.Current(reg); got != Trusted {
			t.Errorf("Current = %v, want Trusted", got)
		}
	}
	gone(a)
	if len(tab.spare) != 1 {
		t.Fatalf("spare stacks = %d, want 1", len(tab.spare))
	}
	if _, err := tab.Enter(b, ids[1]); err != nil {
		t.Fatal(err)
	}
	if len(tab.spare) != 0 || cap(tab.stacks[b]) < 2 {
		t.Errorf("second register did not take the spare stack (spare %d, cap %d)", len(tab.spare), cap(tab.stacks[b]))
	}
	if _, err := tab.Leave(b, mpk.PermitAll); err != nil {
		t.Fatal(err)
	}
	gone(b)
	for _, id := range ids {
		if err := tab.Free(id); err != nil {
			t.Errorf("Free after every stack emptied: %v", err)
		}
	}
}
