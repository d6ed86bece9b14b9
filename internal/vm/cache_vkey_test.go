package vm_test

import (
	"errors"
	"testing"

	"repro/internal/mpk"
	"repro/internal/sig"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// TestPageCacheSeesVKeyEviction: a thread holds tenant A's page in its
// page cache and a PKRU that grants A's hardware slot. Evicting A parks
// its page on the inactive key and rebinds the slot to tenant B. The
// thread is deliberately not bound to the table, so no PKRU revocation
// hides a stale cache: its next access to A's page must PKU-fault on the
// page's new key, and its next access to B's page, cached while B was
// parked, must now succeed.
func TestPageCacheSeesVKeyEviction(t *testing.T) {
	space := vm.NewSpace()
	tab, err := vkey.NewTable(space, vkey.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const base vm.Addr = 0x4000_0000
	n := tab.Slots() + 1
	ids := make([]vkey.ID, n)
	page := func(i int) vm.Addr { return base + vm.Addr(i)*vm.PageSize }
	for i := range ids {
		if _, err := space.Reserve("tenant", page(i), vm.PageSize, 0); err != nil {
			t.Fatal(err)
		}
		if err := space.Poke(page(i), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = tab.Alloc("tenant")
		if err := tab.Attach(ids[i], page(i), vm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	victim, next := 0, n-1
	hw, _, err := tab.Activate(ids[victim])
	if err != nil {
		t.Fatal(err)
	}
	th := vm.NewThread(space, nil)
	th.SetRights(mpk.DenyAllExcept(hw))
	if v, err := th.Load8(page(victim)); err != nil || v != byte(victim+1) {
		t.Fatalf("victim load before eviction = %d, %v", v, err)
	}
	if _, err := th.Load8(page(next)); !isPKUErr(err) { // parked: faults, but is cached
		t.Fatalf("parked tenant load: err = %v, want PKUERR", err)
	}
	for _, i := range []int{victim, next} {
		if !vm.PageCached(th, page(i)) {
			t.Fatalf("tenant %d's page not in the thread's cache", i)
		}
	}

	// Fill every other slot; the last activation evicts the LRU victim
	// and rebinds its slot.
	for i := 1; i < n; i++ {
		if _, _, err := tab.Activate(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tab.HardwareKey(ids[victim]); ok {
		t.Fatal("victim still bound after the table filled")
	}
	if got, ok := tab.HardwareKey(ids[next]); !ok || got != hw {
		t.Fatalf("next tenant bound to %v (%v), want the victim's slot %v", got, ok, hw)
	}

	if _, err := th.Load8(page(victim)); !isPKUErr(err) {
		t.Fatalf("victim load after eviction: err = %v, want PKUERR", err)
	}
	if v, err := th.Load8(page(next)); err != nil || v != byte(next+1) {
		t.Fatalf("rebound tenant load = %d, %v; want %d, nil", v, err, next+1)
	}
}

func isPKUErr(err error) bool {
	var f *vm.Fault
	return errors.As(err, &f) && f.Info.Code == sig.CodePKUErr
}
