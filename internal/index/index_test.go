package index

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

func run1(t *testing.T, fn func(th *machine.Thread)) machine.Result {
	t.Helper()
	m := machine.NewB()
	m.Configure(machine.RunConfig{
		Threads:   1,
		Placement: machine.PlaceSparse,
		Policy:    vmm.FirstTouch,
		Allocator: "jemalloc",
		Seed:      1,
	})
	return m.Run(1, fn)
}

func TestAllIndexesInsertLookup(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				const n = 3000
				r := xrand.New(9)
				keys := r.Perm(n) // shuffled dense keys, like the join build
				for _, k := range keys {
					idx.Insert(th, uint64(k), uint64(k)*3)
				}
				if idx.Len() != n {
					t.Fatalf("Len = %d, want %d", idx.Len(), n)
				}
				for k := 0; k < n; k++ {
					v, ok := idx.Lookup(th, uint64(k))
					if !ok || v != uint64(k)*3 {
						t.Fatalf("Lookup(%d) = %d,%v want %d,true", k, v, ok, uint64(k)*3)
					}
				}
				if _, ok := idx.Lookup(th, n+100); ok {
					t.Fatal("found absent key")
				}
			})
		})
	}
}

func TestAllIndexesOverwrite(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				idx.Insert(th, 5, 10)
				idx.Insert(th, 5, 20)
				if idx.Len() != 1 {
					t.Fatalf("Len = %d after overwrite, want 1", idx.Len())
				}
				if v, _ := idx.Lookup(th, 5); v != 20 {
					t.Fatalf("Lookup = %d, want 20", v)
				}
			})
		})
	}
}

func TestAllIndexesSparseKeys(t *testing.T) {
	// Wide keys stress ART's byte decomposition and B+tree splits.
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				r := xrand.New(4)
				ref := map[uint64]uint64{}
				for i := 0; i < 2000; i++ {
					k := r.Uint64()
					ref[k] = k ^ 0xdead
					idx.Insert(th, k, k^0xdead)
				}
				for k, v := range ref {
					got, ok := idx.Lookup(th, k)
					if !ok || got != v {
						t.Fatalf("Lookup(%#x) = %#x,%v want %#x", k, got, ok, v)
					}
				}
			})
		})
	}
}

func TestIndexMatchesMapProperty(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run1(t, func(th *machine.Thread) {
				idx := New(kind)
				ref := map[uint64]uint64{}
				f := func(ops []uint16) bool {
					for _, op := range ops {
						k := uint64(op % 512)
						v := uint64(op)
						idx.Insert(th, k, v)
						ref[k] = v
						got, ok := idx.Lookup(th, k)
						if !ok || got != ref[k] {
							return false
						}
					}
					return len(ref) == idx.Len()
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func TestBTreeScanOrdered(t *testing.T) {
	run1(t, func(th *machine.Thread) {
		b := newBTree()
		r := xrand.New(2)
		for _, k := range r.Perm(500) {
			b.Insert(th, uint64(k), uint64(k))
		}
		var got []uint64
		b.Scan(th, 100, func(k, v uint64) bool {
			got = append(got, k)
			return len(got) < 50
		})
		if len(got) != 50 {
			t.Fatalf("scan returned %d keys", len(got))
		}
		for i, k := range got {
			if k != uint64(100+i) {
				t.Fatalf("scan[%d] = %d, want %d", i, k, 100+i)
			}
		}
	})
}

func TestARTUsesVariedSizeClasses(t *testing.T) {
	// ART's defining allocator profile: at least three distinct node
	// sizes requested while building over dense keys.
	m := machine.NewB()
	m.Configure(machine.RunConfig{Threads: 1, Placement: machine.PlaceSparse, Allocator: "jemalloc", Seed: 1})
	sizes := map[uint64]bool{}
	m.Run(1, func(th *machine.Thread) {
		idx := newART()
		for k := uint64(0); k < 2000; k++ {
			idx.Insert(th, k, k)
		}
		// Walk the tree and collect node sizes.
		var walk func(n *artNode)
		walk = func(n *artNode) {
			sizes[n.size] = true
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(idx.root)
	})
	if len(sizes) < 3 {
		t.Errorf("ART should use several node size classes, got %v", sizes)
	}
}

func TestSkipListDeterministicBuild(t *testing.T) {
	build := func() int {
		s := newSkipList()
		var level int
		run1(t, func(th *machine.Thread) {
			for k := uint64(0); k < 1000; k++ {
				s.Insert(th, k, k)
			}
			level = s.level
		})
		return level
	}
	if build() != build() {
		t.Error("skip list towers must be deterministic")
	}
}

func TestLookupCostOrdering(t *testing.T) {
	// Figure 7e shape: ART and B+tree lookups should be cheaper than
	// Skip List pointer chasing at equal sizes.
	cost := func(kind Kind) float64 {
		var cycles float64
		run1(t, func(th *machine.Thread) {
			idx := New(kind)
			r := xrand.New(3)
			for _, k := range r.Perm(20000) {
				idx.Insert(th, uint64(k), uint64(k))
			}
			start := th.Cycles()
			for i := 0; i < 5000; i++ {
				idx.Lookup(th, uint64(r.Intn(20000)))
			}
			cycles = th.Cycles() - start
		})
		return cycles
	}
	art := cost(ARTKind)
	bt := cost(BTreeKind)
	sl := cost(SkipListKind)
	if art >= sl || bt >= sl {
		t.Errorf("ART (%v) and B+tree (%v) should beat Skip List (%v)", art, bt, sl)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R-tree")
}

func TestSkipListTowerInvariant(t *testing.T) {
	// The host layout caches each link's target key and address in the
	// tower that points at it; both must always equal the target's own.
	// Level i must also chain, in key order, exactly the nodes taller
	// than i.
	run1(t, func(th *machine.Thread) {
		s := newSkipList()
		r := xrand.New(6)
		for _, k := range r.Perm(3000) {
			s.Insert(th, uint64(k)*7, uint64(k))
		}
		s.Insert(th, 14, 99) // overwrite keeps every link
		height := func(node int32) int {
			end := len(s.links)
			if int(node)+1 < len(s.nodes) {
				end = int(s.nodes[node+1].tower)
			}
			return end - int(s.nodes[node].tower)
		}
		for lvl := 0; lvl < s.maxLevel; lvl++ {
			want := 0
			for i := range s.nodes {
				if height(int32(i)) > lvl {
					want++
				}
			}
			got := 0
			var prev uint64
			for l := s.links[lvl]; l.to >= 0; l = s.links[l.to+int32(lvl)] {
				n := s.nodes[l.node]
				if l.key != n.key || l.addr != n.addr || l.to != n.tower {
					t.Fatalf("level %d link {key %d addr %#x tower %d} disagrees with its node {key %d addr %#x tower %d}",
						lvl, l.key, l.addr, l.to, n.key, n.addr, n.tower)
				}
				if height(l.node) <= lvl {
					t.Fatalf("level %d links to node %d of height %d", lvl, l.node, height(l.node))
				}
				if got > 0 && l.key <= prev {
					t.Fatalf("level %d out of order: %d after %d", lvl, l.key, prev)
				}
				prev = l.key
				got++
			}
			if got != want {
				t.Fatalf("level %d chains %d nodes, want %d", lvl, got, want)
			}
		}
		if v, ok := s.Lookup(th, 14); !ok || v != 99 {
			t.Fatalf("Lookup(14) = %d,%v after overwrite, want 99,true", v, ok)
		}
	})
}
