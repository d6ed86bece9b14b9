package vm

// PageCached reports whether a's page sits in t's page cache.
func PageCached(t *Thread, a Addr) bool {
	vpn := a.PageIndex()
	e := &t.tlb[vpn%tlbEntries]
	return e.p != nil && e.vpn == vpn
}
