package cache

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHitAfterInsert(t *testing.T) {
	c := New(64, 4)
	if c.Access(42) {
		t.Fatal("first access must miss")
	}
	if !c.Access(42) {
		t.Fatal("second access must hit")
	}
}

func TestEntriesRounding(t *testing.T) {
	c := New(100, 4)
	if c.Entries() < 100 {
		t.Fatalf("entries = %d, want >= 100", c.Entries())
	}
	if c.Entries()%4 != 0 {
		t.Fatalf("entries = %d, not a multiple of ways", c.Entries())
	}
}

func TestLRUEviction(t *testing.T) {
	// Single set of 2 ways: tags that collide in set 0.
	c := New(2, 2)
	sets := c.Entries() / 2
	a, b, d := uint64(0), uint64(sets), uint64(2*sets) // same set
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now more recent than b
	c.Access(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive (recently used)")
	}
	if c.Contains(b) {
		t.Error("b should be evicted (least recently used)")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := New(1024, 8)
	n := uint64(c.Entries())
	for i := uint64(0); i < n; i++ {
		c.Access(i)
	}
	c.ResetStats()
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < n; i++ {
			if !c.Access(i) {
				t.Fatalf("miss on resident working set at tag %d", i)
			}
		}
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	c := New(64, 4)
	n := uint64(c.Entries() * 8) // 8x capacity, sequential scan
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < n; i++ {
			c.Access(i)
		}
	}
	acc, miss := c.Stats()
	if float64(miss)/float64(acc) < 0.99 {
		t.Errorf("sequential over-capacity scan should thrash: %d/%d misses", miss, acc)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64, 4)
	c.Access(7)
	if !c.Invalidate(7) {
		t.Fatal("invalidate should report residency")
	}
	if c.Contains(7) {
		t.Fatal("tag still resident after invalidate")
	}
	if c.Invalidate(7) {
		t.Fatal("second invalidate should report absence")
	}
}

func TestFlush(t *testing.T) {
	c := New(64, 4)
	for i := uint64(0); i < 32; i++ {
		c.Access(i)
	}
	c.Flush()
	for i := uint64(0); i < 32; i++ {
		if c.Contains(i) {
			t.Fatalf("tag %d survived flush", i)
		}
	}
}

func TestStatsCount(t *testing.T) {
	c := New(16, 2)
	for i := uint64(0); i < 10; i++ {
		c.Access(i % 5)
	}
	acc, miss := c.Stats()
	if acc != 10 {
		t.Errorf("accesses = %d, want 10", acc)
	}
	if miss != 5 {
		t.Errorf("misses = %d, want 5 (five distinct tags fit)", miss)
	}
}

func TestContainsMatchesAccessProperty(t *testing.T) {
	c := New(256, 4)
	f := func(tags []uint64) bool {
		for _, tag := range tags {
			tag &= c.domainMask()
			c.Access(tag)
			if !c.Contains(tag) {
				return false // just-inserted tag must be resident
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	c := New(0, 0) // clamped to one entry, one way
	if c.Entries() < 1 {
		t.Fatal("cache must hold at least one entry")
	}
	c.Access(1)
	if !c.Access(1) {
		t.Fatal("single-entry cache should hit on repeat")
	}
	if c.Access(2); c.Access(1) {
		t.Fatal("single-entry cache must evict on conflict")
	}
}

// TestAccessIndexedEquivalence: an AccessIndexed-driven cache must evolve
// exactly like an Access-driven one over the same tag sequence, and the
// returned index must always point at the entry now holding the tag.
func TestAccessIndexedEquivalence(t *testing.T) {
	a, b := New(64, 4), New(64, 4)
	f := func(tags []uint64) bool {
		for _, tag := range tags {
			tag &= b.domainMask()
			hitA := a.Access(tag)
			hitB, idx := b.AccessIndexed(tag)
			if hitA != hitB {
				return false
			}
			if !b.holdsAt(idx, tag) {
				return false
			}
		}
		accA, missA := a.Stats()
		accB, missB := b.Stats()
		return accA == accB && missA == missB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRepeatMatchesAccessHit: Repeat on an index from AccessIndexed must
// leave the cache in the same state as a hitting Access on the same tag.
func TestRepeatMatchesAccessHit(t *testing.T) {
	a, b := New(16, 2), New(16, 2)
	a.Access(9)
	b.Access(9)
	a.Access(9)
	_, idx := b.AccessIndexed(9)
	a.Access(9) // third touch via full lookup...
	b.Repeat(idx)
	// ...must equal the third touch via Repeat: same stats and same
	// eviction behaviour afterwards.
	accA, missA := a.Stats()
	accB, missB := b.Stats()
	if accA != accB || missA != missB {
		t.Fatalf("stats diverge: %d/%d vs %d/%d", accA, missA, accB, missB)
	}
	sets := a.Entries() / 2
	colliderA := uint64(9 + sets)
	a.Access(colliderA)
	b.Access(colliderA)
	a.Access(colliderA + uint64(sets))
	b.Access(colliderA + uint64(sets))
	if a.Contains(9) != b.Contains(9) {
		t.Error("recency after Repeat diverges from recency after Access hit")
	}
}

func TestRepeatAfterMissInsert(t *testing.T) {
	c := New(16, 2)
	hit, idx := c.AccessIndexed(3)
	if hit {
		t.Fatal("cold cache must miss")
	}
	c.Repeat(idx) // re-touch the freshly inserted entry
	acc, miss := c.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 2 accesses 1 miss", acc, miss)
	}
	if !c.Contains(3) {
		t.Fatal("tag should be resident after insert+repeat")
	}
}

func TestTLBSmallPages(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	if tlb.Access(100, false) {
		t.Fatal("cold TLB must miss")
	}
	if !tlb.Access(100, false) {
		t.Fatal("warm TLB must hit")
	}
}

func TestTLBHugeReach(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	// 512 consecutive 4KiB pages inside one huge page: one huge entry
	// covers them all.
	tlb.Access(512*3, true) // first touch loads the huge entry
	hits := 0
	for vpn := uint64(512 * 3); vpn < 512*4; vpn++ {
		if tlb.Access(vpn, true) {
			hits++
		}
	}
	if hits != 512 {
		t.Fatalf("huge entry should cover all 512 pages, hit %d", hits)
	}
}

func TestTLBNoHugeArray(t *testing.T) {
	tlb := NewTLB(64, 0, 4)
	tlb.Access(7, true)
	if tlb.Access(7, true) {
		t.Fatal("without a 2MiB array, huge lookups always miss")
	}
	// Small side still works.
	tlb.Access(7, false)
	if !tlb.Access(7, false) {
		t.Fatal("small side should be unaffected")
	}
}

func TestTLBFlushAndInvalidate(t *testing.T) {
	tlb := NewTLB(64, 32, 4)
	tlb.Access(5, false)
	tlb.Access(512*2, true)
	tlb.Flush()
	if tlb.Access(5, false) {
		t.Fatal("flush must drop small entries")
	}
	if tlb.Access(512*2, true) {
		t.Fatal("flush must drop huge entries")
	}
	tlb.InvalidatePage(5)
	if tlb.Access(5, false) {
		t.Fatal("invalidated page must miss")
	}
}

func TestTLBStats(t *testing.T) {
	tlb := NewTLB(16, 8, 2)
	tlb.Access(1, false)
	tlb.Access(1, false)
	tlb.Access(1024, true)
	acc, miss := tlb.Stats()
	if acc != 3 || miss != 2 {
		t.Fatalf("stats = %d/%d, want 3 accesses 2 misses", acc, miss)
	}
}

func TestTLBRefRepeat(t *testing.T) {
	tlb := NewTLB(16, 8, 2)
	hit, ref := tlb.AccessIndexed(5, false)
	if hit {
		t.Fatal("cold lookup must miss")
	}
	if !ref.Repeat() {
		t.Fatal("repeat of a small-page translation must hit")
	}
	acc, miss := tlb.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 2 accesses 1 miss", acc, miss)
	}
	// Huge translation through the 2MiB array.
	_, href := tlb.AccessIndexed(512*2, true)
	if !href.Repeat() {
		t.Fatal("repeat of a huge translation must hit when the array exists")
	}
}

func TestTLBRefNoHugeArray(t *testing.T) {
	tlb := NewTLB(16, 0, 2)
	hit, ref := tlb.AccessIndexed(512*2, true)
	if hit {
		t.Fatal("huge lookup without a 2MiB array must miss")
	}
	if ref.Repeat() {
		t.Fatal("zero ref must keep missing, like Access")
	}
	// The always-miss path must not touch any counters, matching Access's
	// early return.
	acc, miss := tlb.Stats()
	if acc != 0 || miss != 0 {
		t.Fatalf("stats = %d/%d, want untouched (0/0)", acc, miss)
	}
}

// domainMask keeps the tag bits New's documented domain admits.
func (c *Cache) domainMask() uint64 { return 1<<(32+c.setBits) - 1 }

// holdsAt reports whether entry idx lies in tag's set and holds tag.
func (c *Cache) holdsAt(idx int, tag uint64) bool {
	set, rem, ok := c.split(tag)
	e := c.entries[idx]
	return ok && idx-idx%c.ways == set && e.stamp != 0 && e.tag == rem
}

// TestWayIsEightBytes pins the per-entry host footprint: a field added to
// way must not silently double every cache model's size.
func TestWayIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(way{}) = %d, want 8", got)
	}
}

// TestOutOfDomainTags pins the tag-domain contract of New: Access and
// AccessIndexed panic with a message naming the tag and the geometry,
// before touching any state; Contains and Invalidate report such a tag
// absent even when its low 32 bits above the set index alias a resident
// tag.
func TestOutOfDomainTags(t *testing.T) {
	c := New(256, 4) // 64 sets: tags must be < 2^38
	resident := uint64(5)
	alias := resident + 1<<38 // same set, same low 32 remainder bits
	c.Access(resident)
	for name, op := range map[string]func(){
		"Access":        func() { c.Access(alias) },
		"AccessIndexed": func() { c.AccessIndexed(alias) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{"0x4000000005", "64 sets x 4 ways"} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s(%#x): panic %q does not name %q", name, alias, msg, want)
					}
				}
			}()
			op()
		}()
	}
	if acc, miss := c.Stats(); acc != 1 || miss != 1 {
		t.Errorf("stats = %d/%d after rejected tags, want 1/1", acc, miss)
	}
	if c.Contains(alias) {
		t.Error("Contains reported an out-of-domain tag resident")
	}
	if c.Invalidate(alias) {
		t.Error("Invalidate reported an out-of-domain tag resident")
	}
	if !c.Contains(resident) {
		t.Error("Invalidate of an out-of-domain alias evicted the resident tag")
	}
	c.Access(1<<38 - 1)
	if !c.Contains(1<<38 - 1) {
		t.Error("largest in-domain tag was not inserted")
	}
}

// BenchmarkCacheLookup measures Access over the simulator's real preset
// geometries, on a uniform random tag stream over twice each capacity (so
// about half the lookups miss and scan the whole set), and reports the
// host bytes New allocates per entry.
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range []struct {
		name          string
		entries, ways int
	}{
		{"A-LLC-2048x16", 2048 * 16, 16},
		{"L1-128x8", 128 * 8, 8},
		{"A-TLB4K", 32 + 512, 4},
		{"C-LLC-65536x16", 65536 * 16, 16},
	} {
		b.Run(g.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := New(g.entries, g.ways)
			runtime.ReadMemStats(&after)
			n := 1 << 16
			for n < 2*c.Entries() {
				n <<= 1
			}
			tags := make([]uint64, n)
			rng := rand.New(rand.NewSource(1))
			for i := range tags {
				tags[i] = uint64(rng.Intn(2 * c.Entries()))
			}
			for _, tag := range tags {
				c.Access(tag) // warm
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(tags[i&(len(tags)-1)])
			}
			b.StopTimer()
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(c.Entries()), "bytes/entry")
		})
	}
}
