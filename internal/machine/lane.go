package machine

import (
	"sort"

	"repro/internal/topology"
)

// The round-based scheduler runs every round in two phases. In the group
// phase each runnable thread executes one quantum, node group by node
// group in ascending node order (thread-id order within a group). What a
// quantum touches outside its own node's caches is held back until the
// round boundary:
//
//   - counters, the DRAM contention window and AutoNUMA samples accumulate
//     per thread (Thread.counters, dramDelta, sampleDelta) and merge in
//     thread-id order;
//   - last-writer directory writes go into the round overlay (below), so a
//     group reads its own writes and the round-start value of every line
//     another group wrote;
//   - anything that cannot be held back — demand faults, page placement,
//     allocator calls — parks the thread into the round's serial phase
//     (Thread.parkSerial), which runs after the overlay merge against base
//     state.
//
// These rules are simulated semantics: they fix the float summation order,
// the sample merge order and when one node sees another's writes.

// overlay is the round's pending writes to Machine.writerDir. Each entry
// records the round (epoch) and the node group that wrote it; entries of
// older rounds are dead. Within a round coherence tracking is immediate
// inside a node's cache domain and round-granular across domains: a group
// sees only its own entries, and a later group's write replaces an earlier
// group's, so at the boundary the highest node that wrote a line owns it.
type overlay struct {
	epoch   uint32
	entries []overlayEntry
	log     []uint32 // indices written this round, in first-write order
}

type overlayEntry struct {
	val   uint32
	epoch uint32
	node  uint8 // writer's node; topology.MaxNodes fits
}

// begin opens a fresh round: prior entries expire by epoch bump and the
// write log resets.
func (o *overlay) begin() {
	o.epoch++
	if o.epoch == 0 {
		// Epoch wrapped: stale marks from 2^32 rounds ago would alias the
		// new epoch, so clear them once.
		for i := range o.entries {
			o.entries[i].epoch = 0
		}
		o.epoch = 1
	}
	o.log = o.log[:0]
}

// read returns the directory entry at idx as node's group sees it: its own
// write of this round if there is one, the round-start base value
// otherwise.
func (o *overlay) read(base []uint32, idx uint64, node topology.NodeID) uint32 {
	if e := &o.entries[idx]; e.epoch == o.epoch && e.node == uint8(node) {
		return e.val
	}
	return base[idx]
}

// write records node's group writing v at idx this round.
func (o *overlay) write(idx uint64, node topology.NodeID, v uint32) {
	e := &o.entries[idx]
	if e.epoch != o.epoch {
		e.epoch = o.epoch
		o.log = append(o.log, uint32(idx))
	}
	e.node = uint8(node)
	e.val = v
}

// merge publishes the round's surviving writes into base.
func (o *overlay) merge(base []uint32) {
	for _, idx := range o.log {
		base[idx] = o.entries[idx].val
	}
}

// runQuantum executes one scheduling quantum of t in the round's group
// phase. A thread that hits a serializing operation parks with needSerial
// set and finishes its quantum in the round's serial phase instead.
func (m *Machine) runQuantum(t *Thread) {
	t.quantumStart = t.cycles
	t.inGroup = true
	t.resume <- struct{}{}
	<-t.parked
	t.inGroup = false
	if !t.needSerial {
		m.finishQuantum(t, t.quantumStart)
	}
}

// finishQuantum applies the scheduler's end-of-quantum accounting:
// oversubscribed contexts time-share, so wall time inflates by the
// context's load and each switch re-pollutes the private caches.
func (m *Machine) finishQuantum(t *Thread, start float64) {
	load := m.hwLoad[t.hw]
	if load < 1 {
		load = 1
	}
	t.wall += (t.cycles - start) * float64(load)
	if m.prof != nil && load > 1 {
		// The quantum's charges were attributed at their sources; the
		// inflation beyond them is time spent descheduled.
		m.prof.add(t.id, t.node, BucketTimeshare, (t.cycles-start)*float64(load-1))
	}
	if load > 1 {
		t.l1.Flush()
		t.tlb.Flush()
	}
}

// mergeThreadDeltas folds one thread's round-local accumulators into the
// machine: counters, the contention window, and AutoNUMA samples (sorted
// by page so map order never leaks into the simulation).
func (m *Machine) mergeThreadDeltas(t *Thread) {
	m.counters.TLBMisses += t.counters.TLBMisses
	m.counters.CacheAccesses += t.counters.CacheAccesses
	m.counters.CacheMisses += t.counters.CacheMisses
	m.counters.LocalAccesses += t.counters.LocalAccesses
	m.counters.RemoteAccesses += t.counters.RemoteAccesses
	t.counters = Counters{}
	for i, v := range t.dramDelta {
		if v != 0 {
			m.dramWindow[i] += v
			t.dramDelta[i] = 0
		}
	}
	m.windowTotal += t.winDelta
	m.remoteWin += t.remoteDelta
	t.winDelta, t.remoteDelta = 0, 0
	if len(t.sampleDelta) > 0 {
		vpns := make([]uint64, 0, len(t.sampleDelta))
		for vpn := range t.sampleDelta { //rangecheck:ok keys sorted immediately below
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			m.samples[vpn] = t.sampleDelta[vpn]
			delete(t.sampleDelta, vpn)
		}
	}
}
