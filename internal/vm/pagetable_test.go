package vm

import (
	"fmt"
	"testing"

	"repro/internal/mpk"
	"repro/internal/sig"
)

// TestPageTableRangeWalk: a range walk visits exactly the resident pages
// inside [lo, hi), in address order, across chunk boundaries and gaps of
// absent chunks.
func TestPageTableRangeWalk(t *testing.T) {
	pt := pageTable{dir: make(map[uint64]*chunk)}
	vpns := []uint64{3, 63, 64, 65, 127, 128, 5 * chunkPages, 1000, 1 << 30, 1<<30 + 1} // ascending
	byPage := map[*page]uint64{}
	// Insert out of order so the sorted chunk list is exercised.
	for i := len(vpns) - 1; i >= 0; i-- {
		p := newPage(0)
		byPage[p] = vpns[i]
		pt.put(vpns[i], p)
	}
	if pt.count != len(vpns) {
		t.Fatalf("count = %d, want %d", pt.count, len(vpns))
	}
	for _, v := range vpns {
		if pt.get(v) == nil {
			t.Errorf("get(%d) = nil", v)
		}
	}
	if pt.get(4) != nil || pt.get(1<<30+2) != nil {
		t.Error("get of an absent vpn returned a page")
	}
	ranges := [][2]uint64{{0, 1 << 31}, {0, 0}, {63, 65}, {64, 64}, {4, 63}, {65, 1000}, {128, 1 << 30}, {1<<30 + 1, 1 << 31}, {2000, 3000}}
	for _, r := range ranges {
		var want []uint64
		for _, v := range vpns {
			if v >= r[0] && v < r[1] {
				want = append(want, v)
			}
		}
		var got []uint64
		pt.each(r[0], r[1], func(p *page) { got = append(got, byPage[p]) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("each(%d, %d) visited %v, want %v", r[0], r[1], got, want)
		}
	}
}

// TestPageCacheSeesRightsChanges: the thread's page cache holds page
// pointers, never keys, so a change made through the Space is seen by the
// very next access of a thread whose cache already holds the page.
func TestPageCacheSeesRightsChanges(t *testing.T) {
	const v = 0x5eed
	denyKey2 := mpk.PermitAll.With(2, mpk.DenyAll)
	warm := func(t *testing.T) (*Space, *Thread, Addr) {
		t.Helper()
		s, th := newTestThread(t, 1)
		a := testBase + 3*PageSize
		if err := th.Store64(a, v); err != nil {
			t.Fatal(err)
		}
		th.SetRights(denyKey2)
		if _, err := th.Load64(a); err != nil {
			t.Fatalf("warm-up load: %v", err)
		}
		if !PageCached(th, a) {
			t.Fatal("page not in the thread's cache after the warm-up load")
		}
		return s, th, a
	}
	cases := []struct {
		name string
		set  func(*Space, Addr, mpk.Key) error
	}{
		{"SetPKey", func(s *Space, a Addr, k mpk.Key) error { return s.SetPKey(a, PageSize, k) }},
		{"SetPageKey", func(s *Space, a Addr, k mpk.Key) error { return s.SetPageKey(a, PageSize, k) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, th, a := warm(t)
			if err := c.set(s, a, 2); err != nil { // revoke
				t.Fatal(err)
			}
			if _, err := th.Load64(a); !isPKUErr(err) {
				t.Fatalf("load after retag to a denied key: err = %v, want PKUERR", err)
			}
			if err := c.set(s, a, 1); err != nil { // widen again
				t.Fatal(err)
			}
			if got, err := th.Load64(a); err != nil || got != v {
				t.Fatalf("load after retag to a granted key = %#x, %v; want %#x, nil", got, err, v)
			}
		})
	}
	t.Run("ZeroResident", func(t *testing.T) {
		s, th, a := warm(t)
		if err := s.ZeroResident(a.PageBase(), PageSize); err != nil {
			t.Fatal(err)
		}
		if got, err := th.Load64(a); err != nil || got != 0 {
			t.Fatalf("load after scrub = %#x, %v; want 0, nil", got, err)
		}
	})
}

func isPKUErr(err error) bool {
	f, ok := err.(*Fault)
	return ok && f.Info.Code == sig.CodePKUErr
}

// TestWholeRegionRetagAllocatesNothing: retagging a whole region splits
// nothing, so it neither sorts the region table nor allocates.
func TestWholeRegionRetagAllocatesNothing(t *testing.T) {
	s, th := newTestThread(t, 1)
	for i := 0; i < 8; i++ {
		if err := th.Store64(testBase+Addr(i)*PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	key := mpk.Key(2)
	allocs := testing.AllocsPerRun(100, func() {
		key ^= 3 // alternate 2 and 1
		if err := s.SetPKey(testBase, testSize, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("whole-region SetPKey allocates %v objects, want 0", allocs)
	}
}

// BenchmarkSetPKeyResident retags one resident page of a one-page region
// while n unrelated pages are resident elsewhere, half below it and half
// above. A range-indexed retag costs the same for every n.
//
//	go test ./internal/vm -run '^$' -bench SetPKeyResident
func BenchmarkSetPKeyResident(b *testing.B) {
	for _, n := range []int{0, 1000, 100000} {
		b.Run(fmt.Sprintf("other=%d", n), func(b *testing.B) {
			const (
				low    Addr = 0x1000_0000
				target Addr = 0x2000_0000_0000
				high   Addr = 0x3000_0000_0000
			)
			s := NewSpace()
			span := uint64(n/2+1) * PageSize
			for _, r := range []struct {
				name string
				base Addr
				size uint64
			}{{"low", low, span}, {"target", target, PageSize}, {"high", high, span}} {
				if _, err := s.Reserve(r.name, r.base, r.size, 1); err != nil {
					b.Fatal(err)
				}
			}
			// Page payloads play no part in a retag walk, so the unrelated
			// pages are installed without their 4 KiB of data: 100k
			// resident pages stay a few MB instead of 400 MB.
			s.mu.Lock()
			for i := 0; i < n; i++ {
				base := low
				if i%2 == 1 {
					base = high
				}
				s.pages.put((base + Addr(i/2)*PageSize).PageIndex(), new(page))
			}
			s.mu.Unlock()
			if err := s.Poke(target, []byte{1}); err != nil {
				b.Fatal(err)
			}
			if got := s.ResidentPages(); got != n+1 {
				b.Fatalf("resident pages = %d, want %d", got, n+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SetPKey(target, PageSize, mpk.Key(1+i%2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
