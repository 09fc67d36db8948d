package cache

// TLB models a core's translation lookaside buffer with separate entry
// arrays for 4KiB and 2MiB pages, as in Table II of the paper. A huge
// mapping covers 512x the address range per entry, which is the entire
// benefit Transparent Hugepages buys.
type TLB struct {
	small *Cache // tags are 4KiB virtual page numbers
	huge  *Cache // tags are 2MiB virtual page numbers
}

// NewTLB builds a TLB with the given 4KiB and 2MiB entry counts and
// associativity. A zero hugeEntries disables the huge array (accesses to
// huge pages then always miss the TLB's huge side and fall back to walks),
// mirroring machines without 2MiB TLB capacity.
func NewTLB(smallEntries, hugeEntries, ways int) *TLB {
	t := &TLB{small: New(smallEntries, ways)}
	if hugeEntries > 0 {
		t.huge = New(hugeEntries, ways)
	}
	return t
}

// Access looks up the translation for the page identified by vpn (a 4KiB
// virtual page number). If the backing mapping is huge, the lookup uses the
// 2MiB array keyed by the huge-page number. It reports a TLB hit.
func (t *TLB) Access(vpn uint64, huge bool) bool {
	if huge {
		if t.huge == nil {
			return false
		}
		return t.huge.Access(vpn >> 9) // 512 base pages per huge page
	}
	return t.small.Access(vpn)
}

// TLBRef is a repeatable-translation handle returned by AccessRef: it pins
// the cache array that served a lookup, so immediately repeated lookups of
// the same translation (consecutive lines of one page) can skip the set
// scan. A zero ref (nil cache) stands for the "no 2MiB array" miss path,
// where repeats also miss without state changes.
type TLBRef struct {
	c *Cache
}

// Repeat re-touches the translation: state-identical to the Access call
// that produced the ref hitting the same entry. It reports a hit; a zero
// ref reports a miss (huge lookup with no huge array), matching Access.
// Valid only while no other operation has touched the owning cache.
func (r TLBRef) Repeat() bool {
	if r.c == nil {
		return false
	}
	r.c.Repeat()
	return true
}

// AccessRef performs Access(vpn, huge) and returns a TLBRef for repeated
// lookups of the same translation. The lookup leaves the translation most
// recent, hit or miss, so repeats are hits either way.
func (t *TLB) AccessRef(vpn uint64, huge bool) (bool, TLBRef) {
	if huge {
		if t.huge == nil {
			return false, TLBRef{}
		}
		return t.huge.Access(vpn >> 9), TLBRef{t.huge}
	}
	return t.small.Access(vpn), TLBRef{t.small}
}

// Flush drops all cached translations (context switch / migration).
func (t *TLB) Flush() {
	t.small.Flush()
	if t.huge != nil {
		t.huge.Flush()
	}
}

// InvalidatePage drops the translation for vpn in both arrays, as the
// kernel does when remapping (page migration, hugepage split/promote).
func (t *TLB) InvalidatePage(vpn uint64) {
	t.small.Invalidate(vpn)
	if t.huge != nil {
		t.huge.Invalidate(vpn >> 9)
	}
}

// Stats returns combined access and miss counts across both arrays.
func (t *TLB) Stats() (accesses, misses uint64) {
	a, m := t.small.Stats()
	if t.huge != nil {
		ha, hm := t.huge.Stats()
		a += ha
		m += hm
	}
	return a, m
}
