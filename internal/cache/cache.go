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
	"fmt"
	"math"
)

// maxWays is the largest associativity New accepts: a set's fill count is
// one byte.
const maxWays = math.MaxUint8

// Cache is a set-associative cache with true LRU replacement. Capacity is
// expressed in entries (lines for a data cache, translations for a TLB);
// the caller decides what a tag means.
//
// Each set keeps its resident tags in recency order: set s owns
// tags[s*ways : (s+1)*ways], and its fill[s] resident tags sit in the
// first fill[s] slots, most recent first. A hit moves the tag to slot 0, a
// miss shifts the filled prefix down one slot (dropping the last, the LRU
// victim, when the set is full) and writes slot 0. A slot stores only the
// tag bits above the set index (the set fixes the low bits), 4 host bytes
// per entry; there are no validity bits and no recency stamps.
type Cache struct {
	ways     int
	setBits  uint
	setMask  uint64
	tags     []uint32
	fill     []uint8
	accesses uint64
	misses   uint64
}

// New builds a cache with at least the requested number of entries and the
// given associativity. The set count is rounded up to a power of two, so
// the effective capacity may slightly exceed entries. ways must be >= 1
// (smaller values are raised to 1) and <= 255 (New panics otherwise);
// an entries value below ways is raised to ways (one set).
//
// Tags must satisfy tag>>setBits < 2^32, where 2^setBits is the set count:
// a slot stores only the tag bits above the set index, in 32 bits. Access
// panics on a tag outside that domain; Contains and Invalidate report it
// absent.
func New(entries, ways int) *Cache {
	if ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways exceed the maximum associativity %d", ways, maxWays))
	}
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
		tags:    make([]uint32, sets*ways),
		fill:    make([]uint8, sets),
	}
}

// Entries returns the effective capacity in entries.
func (c *Cache) Entries() int { return len(c.tags) }

// split returns tag's set, its resident tags (most recent first) and the
// tag bits stored in a slot, and reports whether tag lies in the domain
// New documents.
func (c *Cache) split(tag uint64) (set int, resident []uint32, rem uint32, ok bool) {
	hi := tag >> c.setBits
	set = int(tag & c.setMask)
	base := set * c.ways
	return set, c.tags[base : base+int(c.fill[set])], uint32(hi), hi <= math.MaxUint32
}

// outOfDomain panics for a tag whose bits above the set index do not fit a
// slot: a caller bug, since New documents the domain.
func (c *Cache) outOfDomain(tag uint64) {
	panic(fmt.Sprintf("cache: tag %#x out of domain: tag>>%d must be < 2^32 (%d sets x %d ways)",
		tag, c.setBits, c.setMask+1, c.ways))
}

// Access looks up tag, inserting it (with LRU eviction) on a miss, and
// reports whether the lookup hit. Either way tag ends up most recent.
//
// The scan moves each tag it passes one slot down as it goes, so a hit at
// rank r reads and writes r+1 slots, and a miss shifts the whole filled
// prefix. The tag that falls off the end of a full set is the least
// recently used one, which true LRU evicts.
func (c *Cache) Access(tag uint64) bool {
	set, w, rem, ok := c.split(tag)
	if !ok {
		c.outOfDomain(tag)
	}
	c.accesses++
	prev := rem
	for i, t := range w {
		w[i] = prev
		if t == rem {
			return true
		}
		prev = t
	}
	c.misses++
	if n := len(w); n < c.ways {
		c.tags[set*c.ways+n] = prev
		c.fill[set]++
	}
	return false
}

// Repeat re-touches the tag of the last Access: state-identical to Access
// hitting it again. Access leaves its tag most recent, so only the access
// count changes. The caller must guarantee that nothing since moved the tag
// from its set's front (an Access to the same set, an Invalidate of the
// tag, a Flush); the machine layer's batched access path drops its handles
// at every yield point.
func (c *Cache) Repeat() { c.accesses++ }

// Contains reports whether tag is resident without updating recency or
// counters.
func (c *Cache) Contains(tag uint64) bool {
	_, w, rem, ok := c.split(tag)
	if !ok {
		return false
	}
	for _, t := range w {
		if t == rem {
			return true
		}
	}
	return false
}

// Invalidate removes tag if present, reporting whether it was resident.
// The less recent tags move up one slot, keeping the order intact.
func (c *Cache) Invalidate(tag uint64) bool {
	set, w, rem, ok := c.split(tag)
	if !ok {
		return false
	}
	for i, t := range w {
		if t == rem {
			copy(w[i:], w[i+1:])
			c.fill[set]--
			return true
		}
	}
	return false
}

// Flush invalidates every entry (used when a thread migrates and loses its
// core-private state). Only the fill counts are cleared: slots past a
// set's fill are never read.
func (c *Cache) Flush() { clear(c.fill) }

// Stats returns the cumulative access and miss counts.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }
