package index

import (
	"repro/internal/machine"
	"repro/internal/xrand"
)

// skiplist is the canonical probabilistic skip list: towers of forward
// pointers with geometric height. Every level step is a dependent pointer
// chase to a node allocated at insert time, so lookups scatter across the
// heap — the poor locality that keeps the skip list the slowest index in
// Figure 7e despite its simplicity.
//
// On the host the nodes live in flat arenas. Each tower is one run of
// links, and a link caches its target's key and simulated address, so a
// search step reads only the current tower.
type skiplist struct {
	maxLevel int
	// links holds every tower back to back, level 0 first. The head
	// sentinel's tower is links[:maxLevel].
	links []slLink
	nodes []slNode
	level int
	rng   *xrand.Rand
}

// slLink is one forward pointer of a tower.
type slLink struct {
	key, addr uint64 // the target node's key and simulated address
	to        int32  // the target's tower (index into links); -1 is nil
	node      int32  // the target's index into nodes
}

// slNode is a node's own record, the source its incoming links copy key
// and addr from. Towers are appended in node order, so a node's tower runs
// up to the next node's.
type slNode struct {
	key, val, addr uint64
	tower          int32 // index of the node's level-0 link
}

const slMaxLevel = 24

func newSkipList() *skiplist {
	s := &skiplist{
		maxLevel: slMaxLevel,
		links:    make([]slLink, slMaxLevel),
		level:    1,
		rng:      xrand.New(0x5b1f),
	}
	for i := range s.links {
		s.links[i].to = -1
	}
	return s
}

func (s *skiplist) Name() string { return "Skip List" }
func (s *skiplist) Len() int     { return len(s.nodes) }

// nodeBytes is the simulated size of a node with the given tower height:
// key, value, and one forward pointer per level.
func slNodeBytes(levels int) uint64 { return 16 + 8*uint64(levels) }

// randomLevel draws a tower height with p = 1/2 per extra level.
func (s *skiplist) randomLevel() int {
	l := 1
	for l < s.maxLevel && s.rng.Bernoulli(0.5) {
		l++
	}
	return l
}

// slPred is a search's predecessor at one level: its tower and simulated
// address. The zero value is the head sentinel.
type slPred struct {
	tower int32
	addr  uint64
}

func (s *skiplist) Insert(t *machine.Thread, key, val uint64) {
	var update [slMaxLevel]slPred
	var x slPred
	for i := s.level - 1; i >= 0; i-- {
		for l := s.links[x.tower+int32(i)]; l.to >= 0 && l.key < key; l = s.links[x.tower+int32(i)] {
			x = slPred{l.to, l.addr}
			t.Read(x.addr, 24) // key + level-i forward pointer
			t.Charge(2)
		}
		update[i] = x
	}
	if l := s.links[x.tower]; l.to >= 0 && l.key == key {
		s.nodes[l.node].val = val
		t.Write(l.addr, 8)
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		s.level = lvl // update[i] for the new levels is already the head
	}
	size := slNodeBytes(lvl)
	addr := t.Malloc(size)
	self := slLink{key: key, addr: addr, to: int32(len(s.links)), node: int32(len(s.nodes))}
	s.nodes = append(s.nodes, slNode{key: key, val: val, addr: addr, tower: self.to})
	for i := 0; i < lvl; i++ {
		s.links = append(s.links, s.links[update[i].tower+int32(i)])
		s.links[update[i].tower+int32(i)] = self
	}
	t.Write(addr, size)
	for i := 0; i < lvl; i++ {
		if update[i].tower != 0 {
			t.Write(update[i].addr, 8)
		}
	}
}

func (s *skiplist) Lookup(t *machine.Thread, key uint64) (uint64, bool) {
	var x int32 // the current node's tower; the head's is 0
	for i := s.level - 1; i >= 0; i-- {
		for l := s.links[x+int32(i)]; l.to >= 0 && l.key < key; l = s.links[x+int32(i)] {
			x = l.to
			t.Read(l.addr, 24)
			t.Charge(2)
		}
	}
	if l := s.links[x]; l.to >= 0 {
		t.Read(l.addr, 24)
		t.Charge(2)
		if l.key == key {
			return s.nodes[l.node].val, true
		}
	}
	return 0, false
}
