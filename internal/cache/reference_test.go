package cache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is a naive reference model of a set-associative true-LRU cache:
// one recency list of tags per set (front = most recent) and a map from tag
// to its list element. It shares no code or representation with Cache.
type refLRU struct {
	sets, ways       int
	setBits          uint
	recency          []*list.List // per set; values are uint64 tags
	where            map[uint64]*list.Element
	accesses, misses uint64
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

func (r *refLRU) setOf(tag uint64) int { return int(tag % uint64(r.sets)) }

func (r *refLRU) access(tag uint64) (hit bool) {
	r.accesses++
	l := r.recency[r.setOf(tag)]
	if e, ok := r.where[tag]; ok {
		l.MoveToFront(e)
		return true
	}
	r.misses++
	if l.Len() == r.ways {
		delete(r.where, l.Remove(l.Back()).(uint64))
	}
	r.where[tag] = l.PushFront(tag)
	return false
}

func (r *refLRU) contains(tag uint64) bool {
	_, ok := r.where[tag]
	return ok
}

func (r *refLRU) invalidate(tag uint64) bool {
	e, ok := r.where[tag]
	if ok {
		r.recency[r.setOf(tag)].Remove(e)
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

// order returns set's tags, most recent first.
func (r *refLRU) order(set int) []uint64 {
	var tags []uint64
	for e := r.recency[set].Front(); e != nil; e = e.Next() {
		tags = append(tags, e.Value.(uint64))
	}
	return tags
}

// order returns set's resident tags, most recent first, rebuilt from the
// stored remainders.
func (c *Cache) order(set int) []uint64 {
	var tags []uint64
	for _, rem := range c.tags[set*c.ways : set*c.ways+int(c.fill[set])] {
		tags = append(tags, uint64(rem)<<c.setBits|uint64(set))
	}
	return tags
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
// flag, residency answer, Stats, or the recency order of the operated-on
// set (of every set after a Flush and at the end). Tags come from three
// regions of the documented domain (small, middle, top, so the stored
// 32-bit remainder is exercised at both ends) and, for Contains and
// Invalidate, from just outside it.
func runVsReference(t testing.TB, c *Cache, r *refLRU, ops []byte) {
	t.Helper()
	if c.Entries() != r.sets*r.ways {
		t.Fatalf("Entries() = %d, reference geometry %d sets x %d ways", c.Entries(), r.sets, r.ways)
	}
	sameOrder := func(set int) bool { return slices.Equal(c.order(set), r.order(set)) }
	var lastTag uint64
	repeatable := false // lastTag was the last Access/Repeat, and is still its set's front
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
			tag = low // Access and Repeat take in-domain tags only
		}
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d: op %d tag %#x (%d sets x %d ways): %s = %v, reference %v",
				step/3, op, tag, r.sets, r.ways, what, got, want)
		}
		set := r.setOf(tag)
		switch {
		case op < 8 || (op < 11 && !repeatable):
			if hit, want := c.Access(tag), r.access(tag); hit != want {
				fail("Access hit", hit, want)
			}
			lastTag, repeatable = tag, true
		case op < 11:
			c.Repeat()
			if !r.access(lastTag) {
				fail("reference hit under Repeat", false, true)
			}
			set = r.setOf(lastTag)
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
			for s := range r.sets {
				if !sameOrder(s) {
					fail("order after Flush", c.order(s), r.order(s))
				}
			}
		default:
			c.ResetStats()
			r.accesses, r.misses = 0, 0
		}
		if !sameOrder(set) {
			fail("order", c.order(set), r.order(set))
		}
		if acc, miss := c.Stats(); acc != r.accesses || miss != r.misses {
			fail("Stats", [2]uint64{acc, miss}, [2]uint64{r.accesses, r.misses})
		}
	}
	for s := range r.sets {
		if !sameOrder(s) {
			t.Fatalf("set %d: order %v, reference %v", s, c.order(s), r.order(s))
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
