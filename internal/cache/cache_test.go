package cache

import (
	"math/rand"
	"runtime"
	"slices"
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

// TestRepeatContract: after Access, the tag is its set's most recent, so a
// cache driven by Access+Repeat for immediate re-touches must evolve
// exactly like one driven by Access alone: same hits, same Stats, same
// recency order in every set.
func TestRepeatContract(t *testing.T) {
	a, b := New(64, 4), New(64, 4)
	f := func(tags []uint64) bool {
		for _, raw := range tags {
			tag := raw & b.domainMask()
			if a.Access(tag) != b.Access(tag) {
				return false
			}
			if set := int(tag & b.setMask); b.order(set)[0] != tag {
				return false
			}
			for range raw >> 62 { // 0-3 immediate re-touches
				if !a.Access(tag) {
					return false
				}
				b.Repeat()
			}
		}
		for set := range int(b.setMask + 1) {
			if !slices.Equal(a.order(set), b.order(set)) {
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

// TestRepeatMatchesAccessHit: Repeat after Access must leave the cache in
// the same state as a hitting Access on the same tag.
func TestRepeatMatchesAccessHit(t *testing.T) {
	a, b := New(16, 2), New(16, 2)
	a.Access(9)
	b.Access(9)
	a.Access(9)
	b.Access(9)
	a.Access(9) // third touch via full lookup...
	b.Repeat()
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
	if c.Access(3) {
		t.Fatal("cold cache must miss")
	}
	c.Repeat() // re-touch the freshly inserted entry
	acc, miss := c.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 2 accesses 1 miss", acc, miss)
	}
	if !c.Contains(3) {
		t.Fatal("tag should be resident after insert+repeat")
	}
}

// TestInvalidateMidOrder removes tags from the front, middle and back of a
// full set's recency order: the rest keep their order, and the freed slot
// takes the next miss without an eviction.
func TestInvalidateMidOrder(t *testing.T) {
	c := New(4, 4) // one set
	for tag := uint64(1); tag <= 4; tag++ {
		c.Access(tag)
	}
	for _, step := range []struct {
		invalidate uint64
		want       []uint64
	}{
		{2, []uint64{4, 3, 1}}, // middle
		{4, []uint64{3, 1}},    // front
		{1, []uint64{3}},       // back
	} {
		if !c.Invalidate(step.invalidate) {
			t.Fatalf("Invalidate(%d) reported absent", step.invalidate)
		}
		if got := c.order(0); !slices.Equal(got, step.want) {
			t.Fatalf("after Invalidate(%d): order %v, want %v", step.invalidate, got, step.want)
		}
	}
	for tag := uint64(5); tag <= 7; tag++ {
		c.Access(tag)
	}
	if got, want := c.order(0), []uint64{7, 6, 5, 3}; !slices.Equal(got, want) {
		t.Fatalf("refill: order %v, want %v", got, want)
	}
	if !c.Access(3) || c.Access(8) {
		t.Fatal("3 must hit, 8 must miss")
	}
	if got, want := c.order(0), []uint64{8, 3, 7, 6}; !slices.Equal(got, want) {
		t.Fatalf("after eviction: order %v, want %v (5 was least recent)", got, want)
	}
}

// TestFlushMidOrder flushes a partly reordered set: no stale slot may be
// seen afterwards, and the set refills from empty.
func TestFlushMidOrder(t *testing.T) {
	c := New(4, 4)
	for _, tag := range []uint64{1, 2, 3, 1, 4, 2} {
		c.Access(tag)
	}
	c.Flush()
	for tag := uint64(1); tag <= 4; tag++ {
		if c.Contains(tag) || c.Invalidate(tag) {
			t.Fatalf("tag %d resident after Flush", tag)
		}
	}
	if c.Access(3) || c.Access(1) {
		t.Fatal("accesses after Flush must miss")
	}
	if got, want := c.order(0), []uint64{1, 3}; !slices.Equal(got, want) {
		t.Fatalf("after Flush and refill: order %v, want %v", got, want)
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
	hit, ref := tlb.AccessRef(5, false)
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
	_, href := tlb.AccessRef(512*2, true)
	if !href.Repeat() {
		t.Fatal("repeat of a huge translation must hit when the array exists")
	}
}

func TestTLBRefNoHugeArray(t *testing.T) {
	tlb := NewTLB(16, 0, 2)
	hit, ref := tlb.AccessRef(512*2, true)
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

// TestEntryIsFourBytes pins the per-entry host footprint: one uint32 tag
// slot per entry, plus one fill byte per set.
func TestEntryIsFourBytes(t *testing.T) {
	c := New(0, 1)
	if got := unsafe.Sizeof(c.tags[0]); got != 4 {
		t.Fatalf("tag slot is %d bytes, want 4", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c = New(65536*16, 16)
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.Entries())
	if want := 4 + 1.0/16; perEntry < want || perEntry > want+0.01 {
		t.Fatalf("New allocated %.4f bytes per entry, want %.4f", perEntry, want)
	}
}

// TestNewRejectsTooManyWays: a set's fill count is one byte, so New panics
// on an associativity above 255, naming it, and accepts 255.
func TestNewRejectsTooManyWays(t *testing.T) {
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "256 ways") || !strings.Contains(msg, "255") {
				t.Errorf("New(1024, 256): panic %q does not name the ways and the maximum", msg)
			}
		}()
		New(1024, 256)
	}()
	c := New(255, 255) // one set
	for tag := uint64(0); tag < 256; tag++ {
		c.Access(tag)
	}
	if c.Contains(0) || !c.Contains(1) {
		t.Fatal("255-way set must evict exactly its least recent tag")
	}
}

// TestOutOfDomainTags pins the tag-domain contract of New: Access panics
// with a message naming the tag and the geometry,
// before touching any state; Contains and Invalidate report such a tag
// absent even when its low 32 bits above the set index alias a resident
// tag.
func TestOutOfDomainTags(t *testing.T) {
	c := New(256, 4) // 64 sets: tags must be < 2^38
	resident := uint64(5)
	alias := resident + 1<<38 // same set, same low 32 remainder bits
	c.Access(resident)
	for name, op := range map[string]func(){
		"Access": func() { c.Access(alias) },
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
// geometries on two tag streams, and reports the host bytes New allocates
// per entry. The uniform stream draws tags at random from twice each
// capacity, so about half the lookups miss and shift a whole set, and hits
// land at any rank: the worst case for recency-ordered sets. The skewed
// stream (suffix -skewed) draws them from a Zipf distribution over the same
// range, so a few tags per set take most lookups and hit near the front,
// as in the simulator's streams.
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
		for _, stream := range []string{"", "-skewed"} {
			b.Run(g.name+stream, func(b *testing.B) {
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
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(2*c.Entries()-1))
				for i := range tags {
					if stream == "" {
						tags[i] = uint64(rng.Intn(2 * c.Entries()))
					} else {
						tags[i] = zipf.Uint64()
					}
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
}
