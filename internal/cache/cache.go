// Package cache provides deterministic set-associative LRU cache models
// used by the machine simulator for per-core L1 data caches, per-node
// shared last-level caches, and per-core TLBs (with separate 4KiB and 2MiB
// entry arrays, matching Table II of the paper).
//
// The models are purely functional state machines: an Access either hits or
// misses and updates recency; the machine layer translates outcomes into
// cycles. All replacement decisions are deterministic (true LRU), so a
// simulation with a fixed seed is bit-for-bit reproducible.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// way is one cache entry, 8 host bytes. tag holds the cache tag shifted
// right by the set-index bits (the set index already fixes the low bits).
// A zero stamp marks the way invalid: stamps are assigned from the tick
// counter after it is incremented, so a resident entry always carries a
// stamp >= 1. Keeping tag and stamp adjacent (one struct array instead of
// three parallel slices) is what makes the lookup scan walk one contiguous
// region per set — the simulator's single hottest loop.
type way struct {
	tag   uint32
	stamp uint32
}

// Cache is a set-associative cache with true LRU replacement. Capacity is
// expressed in entries (lines for a data cache, translations for a TLB);
// the caller decides what a tag means.
type Cache struct {
	ways     int
	setBits  uint
	setMask  uint64
	entries  []way
	tick     uint32
	accesses uint64
	misses   uint64
}

// New builds a cache with at least the requested number of entries and the
// given associativity. The set count is rounded up to a power of two, so
// the effective capacity may slightly exceed entries. ways must be >= 1; an
// entries value below ways is raised to ways (one set).
//
// Tags must satisfy tag>>setBits < 2^32, where 2^setBits is the set count:
// a way stores only the tag bits above the set index, in 32 bits. Access
// and AccessIndexed panic on a tag outside that domain; Contains and
// Invalidate report it absent.
func New(entries, ways int) *Cache {
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	sets, setBits := 1, uint(0)
	for sets*ways < entries {
		sets <<= 1
		setBits++
	}
	return &Cache{
		ways:    ways,
		setBits: setBits,
		setMask: uint64(sets - 1),
		entries: make([]way, sets*ways),
	}
}

// Entries returns the effective capacity in entries.
func (c *Cache) Entries() int { return len(c.entries) }

// split returns the index of tag's set's first entry and the tag bits
// stored in a way, and reports whether tag lies in the domain New
// documents.
func (c *Cache) split(tag uint64) (set int, rem uint32, ok bool) {
	hi := tag >> c.setBits
	return int(tag&c.setMask) * c.ways, uint32(hi), hi <= math.MaxUint32
}

// outOfDomain panics for a tag whose bits above the set index do not fit a
// way: a caller bug, since New documents the domain.
func (c *Cache) outOfDomain(tag uint64) {
	panic(fmt.Sprintf("cache: tag %#x out of domain: tag>>%d must be < 2^32 (%d sets x %d ways)",
		tag, c.setBits, c.setMask+1, c.ways))
}

// next advances the stamp clock and returns the new stamp. Before the
// 32-bit clock would wrap, renumber compacts every stamp.
func (c *Cache) next() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber replaces each resident stamp by its rank within its set (1 for
// the least recent; invalid ways keep 0) and restarts the clock at ways,
// above every rank. Replacement only ever compares stamps within one set,
// so every later hit, victim and index is the same as without renumbering.
func (c *Cache) renumber() {
	order := make([]int, 0, c.ways)
	for set := 0; set < len(c.entries); set += c.ways {
		w := c.entries[set : set+c.ways]
		order = order[:0]
		for i := range w {
			if w[i].stamp != 0 {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(w[a].stamp, w[b].stamp) })
		for rank, i := range order {
			w[i].stamp = uint32(rank + 1)
		}
	}
	c.tick = uint32(c.ways)
}

// Access looks up tag, inserting it (with LRU eviction) on a miss, and
// reports whether the lookup hit.
//
// Victim selection: invalid ways carry stamp 0 and therefore lose every
// comparison against resident stamps (>= 1), so the first invalid way wins;
// with all ways resident the minimum stamp (true LRU, first index on the
// impossible tie — stamps are unique) is evicted. This is decision-for-
// decision identical to scanning validity and recency separately.
func (c *Cache) Access(tag uint64) bool {
	set, rem, ok := c.split(tag)
	if !ok {
		c.outOfDomain(tag)
	}
	stamp := c.next()
	c.accesses++
	w := c.entries[set : set+c.ways]
	victim := 0
	victimStamp := ^uint32(0)
	for i := range w {
		e := &w[i]
		if e.stamp != 0 && e.tag == rem {
			e.stamp = stamp
			return true
		}
		if e.stamp < victimStamp {
			victim, victimStamp = i, e.stamp
		}
	}
	c.misses++
	w[victim] = way{tag: rem, stamp: stamp}
	return false
}

// AccessIndexed performs Access(tag) and additionally returns the absolute
// entry index now holding tag, so an immediately following re-access of the
// same tag can use Repeat instead of rescanning the set.
func (c *Cache) AccessIndexed(tag uint64) (hit bool, idx int) {
	set, rem, ok := c.split(tag)
	if !ok {
		c.outOfDomain(tag)
	}
	stamp := c.next()
	c.accesses++
	w := c.entries[set : set+c.ways]
	victim := 0
	victimStamp := ^uint32(0)
	for i := range w {
		e := &w[i]
		if e.stamp != 0 && e.tag == rem {
			e.stamp = stamp
			return true, set + i
		}
		if e.stamp < victimStamp {
			victim, victimStamp = i, e.stamp
		}
	}
	c.misses++
	w[victim] = way{tag: rem, stamp: stamp}
	return false, set + victim
}

// Repeat re-touches the entry at idx: state-identical to Access(tag)
// hitting that entry. The caller must guarantee that idx came from an
// AccessIndexed for the same tag with no intervening operations on this
// cache that could have evicted or moved the entry (the machine layer's
// batched access path guarantees this by invalidating its handles at every
// yield point).
func (c *Cache) Repeat(idx int) {
	c.accesses++
	// next, spelled out: calling it would push Repeat past the compiler's
	// inlining budget, and the batched access path calls Repeat per line.
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	c.entries[idx].stamp = c.tick
}

// Contains reports whether tag is resident without updating recency or
// counters.
func (c *Cache) Contains(tag uint64) bool {
	set, rem, ok := c.split(tag)
	if !ok {
		return false
	}
	for i := set; i < set+c.ways; i++ {
		e := &c.entries[i]
		if e.stamp != 0 && e.tag == rem {
			return true
		}
	}
	return false
}

// Invalidate removes tag if present, reporting whether it was resident.
func (c *Cache) Invalidate(tag uint64) bool {
	set, rem, ok := c.split(tag)
	if !ok {
		return false
	}
	for i := set; i < set+c.ways; i++ {
		e := &c.entries[i]
		if e.stamp != 0 && e.tag == rem {
			e.stamp = 0
			return true
		}
	}
	return false
}

// Flush invalidates every entry (used when a thread migrates and loses its
// core-private state).
func (c *Cache) Flush() {
	for i := range c.entries {
		c.entries[i].stamp = 0
	}
}

// Stats returns the cumulative access and miss counts.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }
