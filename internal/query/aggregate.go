package query

import (
	"math"
	"slices"

	"repro/internal/datagen"
	"repro/internal/hashtable"
	"repro/internal/machine"
)

// recordBytes is the in-memory width of one (key, value) tuple.
const recordBytes = 16

// Outcome reports a workload execution: the simulator's measurement of the
// timed phases plus a checksum for correctness validation.
type Outcome struct {
	Result      machine.Result
	SetupCycles float64
	Groups      int
	Matches     uint64 // join workloads: result tuples
	Checksum    uint64
}

// LoadRecords writes recs into a fresh simulated array, single-threaded
// (the paper's datasets are generated before the measured run; under First
// Touch this places them on the loader's node, which is the central
// mechanism behind the placement-policy results). It returns the base
// address and the setup cycles.
func LoadRecords(m *machine.Machine, recs []datagen.Record) (base uint64, cycles float64) {
	res := m.Run(1, func(t *machine.Thread) {
		base = t.Malloc(uint64(len(recs)) * recordBytes)
		t.WriteRun(base, recordBytes, len(recs))
	})
	return base, res.WallCycles
}

// AggregationSpec describes an aggregation run (W1/W2).
type AggregationSpec struct {
	Records     []datagen.Record
	Cardinality int
	// Holistic selects W1 (MEDIAN over buffered values); false is W2
	// (COUNT, a running counter per group).
	Holistic bool
}

// tupleBytes is the size of one buffered tuple node in a group's chain
// (value + next pointer), individually heap-allocated as in the paper's
// holistic aggregation implementation.
const tupleBytes = 16

// group is the per-group aggregate state, held by value in one slice.
type group struct {
	creator int32 // thread that created the group (median-pass owner)
	// W1: the group's chain of buffered tuples (first and last arena
	// index) and its length.
	head, tail, n int32
	countAddr     uint64 // W2: 8-byte counter in simulated memory
	count         uint64
}

// tuple is one buffered W1 input tuple: its simulated allocation, its
// value, its group, and the next tuple of that group's chain. Each input
// tuple is buffered in its own allocation and the median pass walks, reads
// and frees them; this is what makes W1 the paper's allocation-heavy
// aggregation.
type tuple struct {
	addr, val uint64
	gi, next  int32
}

// Aggregate executes the hashtable-based aggregation workload and returns
// the timed result (build plus, for W1, the per-group median pass).
//
// Every Read, Write, Malloc, Free and Charge may yield to another
// simulated thread, which may then create groups or chain tuples. So the
// body re-indexes groups and tuples after each such call and never holds a
// pointer into either slice across one.
func Aggregate(m *machine.Machine, spec AggregationSpec) Outcome {
	dataAddr, setup := LoadRecords(m, spec.Records)
	m.ResetCounters()

	threads := m.Config().Threads
	var table *hashtable.Table
	groups := make([]group, 0, spec.Cardinality)
	// W1 buffers exactly one tuple per input record, so record i's tuple
	// sits at tuples[i]: each thread fills its own contiguous stretch.
	var tuples []tuple
	if spec.Holistic {
		tuples = make([]tuple, len(spec.Records))
	}

	// The shared table is created by the first worker, as in the paper's
	// codelets; sizing at twice the cardinality keeps chains short.
	res := m.Run(threads, func(t *machine.Thread) {
		if t.ID() == 0 {
			table = hashtable.New(t, spec.Cardinality*2)
		}
	})
	buildAndFinalize := m.Run(threads, func(t *machine.Thread) {
		id := int32(t.ID())
		n := len(spec.Records)
		lo := n * t.ID() / threads
		hi := n * (t.ID() + 1) / threads
		for i := lo; i < hi; i++ {
			rec := spec.Records[i]
			t.Read(dataAddr+uint64(i)*recordBytes, recordBytes)
			gi, _ := table.GetOrPut(t, rec.Key, func() uint32 {
				g := group{creator: id}
				if !spec.Holistic {
					g.countAddr = t.Malloc(8)
				}
				groups = append(groups, g)
				return uint32(len(groups) - 1)
			})
			t.Charge(25) // per-group latch
			if spec.Holistic {
				// Buffer the tuple for the median: one allocation per
				// input record, chained at the group's tail.
				addr := t.Malloc(tupleBytes)
				ti := int32(i)
				tuples[ti] = tuple{addr: addr, val: rec.Val, gi: int32(gi), next: -1}
				g := &groups[gi]
				if g.n == 0 {
					g.head = ti
				} else {
					tuples[g.tail].next = ti
				}
				g.tail = ti
				g.n++
				t.Write(addr, tupleBytes)
			} else {
				countAddr := groups[gi].countAddr
				t.Read(countAddr, 8)
				t.Write(countAddr, 8)
				groups[gi].count++
			}
		}
		if spec.Holistic {
			// Second pass: medians, each thread finalizing the groups it
			// created. Under the moving-cluster input a group's tuples
			// were almost all buffered by their creator, so the pass is
			// local under First Touch — the paper's high measured LAR.
			// Other threads may still be chaining tuples onto a group
			// here: each walk covers the tuples chained when it starts.
			for gi := range groups {
				if groups[gi].creator != id || groups[gi].n == 0 {
					continue
				}
				for ti, k := groups[gi].head, groups[gi].n; k > 0; k-- {
					tu := tuples[ti]
					t.Read(tu.addr, tupleBytes)
					ti = tu.next
				}
				n := float64(groups[gi].n)
				t.Charge(12 * n * math.Log2(n+1)) // in-place sort
				for ti, k := groups[gi].head, groups[gi].n; k > 0; k-- {
					tu := tuples[ti]
					t.Free(tu.addr, tupleBytes)
					ti = tu.next
				}
			}
		}
	})

	out := Outcome{
		Result:      combine(res, buildAndFinalize),
		SetupCycles: setup,
		// table.Len counts distinct keys; the groups slice can hold
		// orphans from lost upsert races.
		Groups: table.Len(),
	}
	if spec.Holistic {
		out.Checksum = medianSum(groups, tuples)
	} else {
		for _, g := range groups {
			out.Checksum += g.count
		}
	}
	return out
}

// medianSum returns the sum of every group's median value. One counting
// sort lays the values out group by group; each group's run is then
// sorted on its own.
func medianSum(groups []group, tuples []tuple) uint64 {
	end := make([]int32, len(groups))
	var off int32
	for gi, g := range groups {
		off += g.n
		end[gi] = off
	}
	// Fill each run from its end: afterwards end[gi] is the run's start.
	byGroup := make([]uint64, len(tuples))
	for i := len(tuples) - 1; i >= 0; i-- {
		tu := tuples[i]
		end[tu.gi]--
		byGroup[end[tu.gi]] = tu.val
	}
	var sum uint64
	for gi, g := range groups {
		start := end[gi]
		sum += sortedMedian(byGroup[start : start+g.n])
	}
	return sum
}

// combine merges two phases of one measurement: wall times add (the phases
// are sequential), counters were accumulated machine-wide already.
func combine(a, b machine.Result) machine.Result {
	b.WallCycles += a.WallCycles
	return b
}

// medianOf returns the median (lower middle) of vals, used for checksums.
func medianOf(vals []uint64) uint64 { return sortedMedian(slices.Clone(vals)) }

// sortedMedian sorts vals in place and returns its lower middle element,
// or 0 if vals is empty.
func sortedMedian(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}

// ReferenceAggregate computes the same aggregate in plain Go, for tests.
func ReferenceAggregate(spec AggregationSpec) (groups int, checksum uint64) {
	byKey := map[uint64][]uint64{}
	for _, r := range spec.Records {
		byKey[r.Key] = append(byKey[r.Key], r.Val)
	}
	for _, vals := range byKey { //rangecheck:ok commutative wrapping-add checksum
		if spec.Holistic {
			checksum += medianOf(vals)
		} else {
			checksum += uint64(len(vals))
		}
	}
	return len(byKey), checksum
}
