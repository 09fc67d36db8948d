package cache

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
)

// refLRU is a naive reference model of a set-associative true-LRU cache:
// one recency list per set (front = most recent) and a map from tag to its
// list element. A missing tag takes the lowest-numbered free way of its
// set, or else the way of the set's least recent tag. It shares no code or
// representation with Cache.
type refLRU struct {
	sets, ways       int
	setBits          uint
	recency          []*list.List // per set; values are refEntry
	where            map[uint64]*list.Element
	accesses, misses uint64
}

type refEntry struct {
	tag uint64
	way int
}

// newRefLRU applies New's documented geometry: the set count is the
// smallest power of two holding max(entries, ways) entries, ways >= 1.
func newRefLRU(entries, ways int) *refLRU {
	ways = max(ways, 1)
	entries = max(entries, ways)
	r := &refLRU{sets: 1, ways: ways, where: map[uint64]*list.Element{}}
	for r.sets*ways < entries {
		r.sets *= 2
		r.setBits++
	}
	for range r.sets {
		r.recency = append(r.recency, list.New())
	}
	return r
}

// inDomain reports whether tag is one New's documented domain admits.
func (r *refLRU) inDomain(tag uint64) bool { return tag>>r.setBits < 1<<32 }

func (r *refLRU) access(tag uint64) (hit bool, idx int) {
	r.accesses++
	set := int(tag % uint64(r.sets))
	l := r.recency[set]
	if e, ok := r.where[tag]; ok {
		l.MoveToFront(e)
		return true, set*r.ways + e.Value.(refEntry).way
	}
	r.misses++
	way := 0
	if l.Len() < r.ways {
		used := make([]bool, r.ways)
		for e := l.Front(); e != nil; e = e.Next() {
			used[e.Value.(refEntry).way] = true
		}
		for used[way] {
			way++
		}
	} else {
		lru := l.Back()
		way = lru.Value.(refEntry).way
		delete(r.where, lru.Value.(refEntry).tag)
		l.Remove(lru)
	}
	r.where[tag] = l.PushFront(refEntry{tag: tag, way: way})
	return false, set*r.ways + way
}

func (r *refLRU) contains(tag uint64) bool {
	_, ok := r.where[tag]
	return ok
}

func (r *refLRU) invalidate(tag uint64) bool {
	e, ok := r.where[tag]
	if ok {
		r.recency[int(tag%uint64(r.sets))].Remove(e)
		delete(r.where, tag)
	}
	return ok
}

func (r *refLRU) flush() {
	for _, l := range r.recency {
		l.Init()
	}
	clear(r.where)
}

// waysChoices are the associativities the differential tests cover.
var waysChoices = [...]int{1, 2, 3, 4, 8, 16}

// refGeometries pairs each associativity with entry counts that are not
// powers of two (plus the degenerate zero).
var refGeometries = []struct{ entries, ways int }{
	{0, 1}, {7, 1}, {5, 2}, {100, 2}, {24, 3}, {100, 3},
	{10, 4}, {300, 4}, {200, 8}, {48, 16}, {300, 16},
}

// randomOps returns n deterministic operation bytes for runVsReference.
func randomOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// runVsReference decodes ops three bytes at a time into Cache operations,
// applies each to c and to r, and fails on the first difference in a hit
// flag, returned index, residency answer or Stats. Tags come from three
// regions of the documented domain (small, middle, top, so the stored
// 32-bit remainder is exercised at both ends) and, for Contains and
// Invalidate, from just outside it.
func runVsReference(t testing.TB, c *Cache, r *refLRU, ops []byte) {
	t.Helper()
	if c.Entries() != r.sets*r.ways {
		t.Fatalf("Entries() = %d, reference geometry %d sets x %d ways", c.Entries(), r.sets, r.ways)
	}
	var lastTag uint64
	var lastIdx int
	repeatable := false // lastIdx came from AccessIndexed/Repeat of lastTag, nothing since moved it
	for step := 0; step+3 <= len(ops); step += 3 {
		op, region, low := ops[step]%16, ops[step+1]%8, uint64(ops[step+2])
		var tag uint64
		switch region {
		case 5:
			tag = 1<<(31+r.setBits) + low
		case 6:
			tag = 1<<(32+r.setBits) - 1 - low
		case 7: // out of domain, aliasing low once truncated to 32 bits
			tag = 1<<(32+r.setBits) + low
		default:
			tag = low
		}
		if !r.inDomain(tag) && op < 11 {
			tag = low // Access, AccessIndexed and Repeat take in-domain tags only
		}
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d: op %d tag %#x (%d sets x %d ways): %s = %v, reference %v",
				step/3, op, tag, r.sets, r.ways, what, got, want)
		}
		switch {
		case op < 5:
			hit := c.Access(tag)
			if wantHit, _ := r.access(tag); hit != wantHit {
				fail("Access hit", hit, wantHit)
			}
			repeatable = false
		case op < 8 || (op < 11 && !repeatable):
			hit, idx := c.AccessIndexed(tag)
			wantHit, wantIdx := r.access(tag)
			if hit != wantHit || idx != wantIdx {
				fail("AccessIndexed (hit, idx)", [2]any{hit, idx}, [2]any{wantHit, wantIdx})
			}
			lastTag, lastIdx, repeatable = tag, idx, true
		case op < 11:
			c.Repeat(lastIdx)
			if hit, idx := r.access(lastTag); !hit || idx != lastIdx {
				fail("reference under Repeat (hit, idx)", [2]any{true, lastIdx}, [2]any{hit, idx})
			}
		case op < 13:
			if got, want := c.Contains(tag), r.contains(tag); got != want {
				fail("Contains", got, want)
			}
		case op < 15:
			if got, want := c.Invalidate(tag), r.invalidate(tag); got != want {
				fail("Invalidate", got, want)
			}
			repeatable = repeatable && tag != lastTag
		case region%2 == 0:
			c.Flush()
			r.flush()
			repeatable = false
		default:
			c.ResetStats()
			r.accesses, r.misses = 0, 0
		}
		if acc, miss := c.Stats(); acc != r.accesses || miss != r.misses {
			fail("Stats", [2]uint64{acc, miss}, [2]uint64{r.accesses, r.misses})
		}
	}
	resident := 0
	for _, e := range c.entries {
		if e.stamp != 0 {
			resident++
		}
	}
	if resident != len(r.where) {
		t.Fatalf("%d resident ways, reference holds %d tags", resident, len(r.where))
	}
	for tag := range r.where {
		if !c.Contains(tag) {
			t.Fatalf("reference tag %#x not resident", tag)
		}
	}
}

// TestCacheMatchesReference drives every geometry through a long random
// operation mix and compares each step with the naive reference LRU.
func TestCacheMatchesReference(t *testing.T) {
	for i, g := range refGeometries {
		runVsReference(t, New(g.entries, g.ways), newRefLRU(g.entries, g.ways), randomOps(int64(i), 30000))
	}
}

// TestStampClockWrap sets the 32-bit stamp clock just below its wrap and
// keeps a warm cache running through the renumbering, so the wrap lands on
// each operation kind in turn: every decision must still match the
// reference, and the clock must have restarted.
func TestStampClockWrap(t *testing.T) {
	for i, g := range refGeometries {
		for _, left := range []uint32{0, 1, 2, 5, 50} {
			c, r := New(g.entries, g.ways), newRefLRU(g.entries, g.ways)
			runVsReference(t, c, r, randomOps(int64(i), 3000))
			c.tick = math.MaxUint32 - left
			runVsReference(t, c, r, randomOps(int64(i)+1000, 3000))
			if c.tick > math.MaxUint32-left {
				t.Fatalf("%d sets x %d ways: clock %d never renumbered", r.sets, r.ways, c.tick)
			}
		}
	}
}

// FuzzCacheVsReference compares Cache with the reference LRU on arbitrary
// geometries and operation sequences. The seed corpus (one random sequence
// per refGeometries entry) runs under plain `go test`; run the fuzzer with
//
//	go test ./internal/cache -run '^$' -fuzz FuzzCacheVsReference -fuzztime 30s
func FuzzCacheVsReference(f *testing.F) {
	for i, g := range refGeometries {
		for w, ways := range waysChoices {
			if ways == g.ways {
				f.Add(uint16(g.entries), uint8(w), randomOps(int64(i), 900))
			}
		}
	}
	f.Fuzz(func(t *testing.T, entries uint16, waysSel uint8, ops []byte) {
		e, w := int(entries%600), waysChoices[int(waysSel)%len(waysChoices)]
		runVsReference(t, New(e, w), newRefLRU(e, w), ops)
	})
}
