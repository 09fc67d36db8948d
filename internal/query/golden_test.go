package query

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/vmm"
)

// goldenMachine is a small Machine A run with a fixed seed and the cycle
// profile on, so every simulated figure below is exact and each thread's
// wall time is visible.
func goldenMachine(threads int, policy vmm.Policy, allocator string) *machine.Machine {
	m := machine.NewA()
	m.Configure(machine.RunConfig{
		Threads:   threads,
		Placement: machine.PlaceSparse,
		Policy:    policy,
		Allocator: allocator,
		Seed:      7,
	})
	m.Observe(machine.ObserveOptions{Profile: true})
	return m
}

// goldenLine renders every simulated output of a kernel call: the timed
// result (wall cycles, counters, allocator statistics, resident bytes),
// each thread's wall time over the timed phases, and the query result.
// Floats print in Go's shortest round-trip form, so two lines are equal
// only if every figure is bit-identical.
func goldenLine(m *machine.Machine, o Outcome) string {
	r := o.Result
	var walls []float64
	for _, th := range m.Profile().Threads {
		walls = append(walls, th.WallCycles)
	}
	return fmt.Sprintf("wall=%v threads=%v counters=%+v alloc=%+v rss=%d setup=%v groups=%d matches=%d checksum=%d",
		r.WallCycles, walls, r.Counters, r.Alloc, r.RSSBytes, o.SetupCycles, o.Groups, o.Matches, o.Checksum)
}

// contendedMedianRecords builds a two-thread W1 input in which one group
// is still growing while its creator finalizes it. Thread 0's half is a
// single key, so its build runs cheaply out of cache and it starts the
// median pass early. Thread 1's half alternates that key with fresh keys,
// so it builds slowly and keeps appending to thread 0's group across the
// median pass's read walk, the sort charge and the free walk.
func contendedMedianRecords() []datagen.Record {
	const half = 3000
	recs := make([]datagen.Record, 0, 2*half)
	for i := 0; i < half; i++ {
		recs = append(recs, datagen.Record{Key: 1, Val: uint64(i*7919) % 1000})
	}
	for i := 0; i < half; i++ {
		key := uint64(1)
		if i%2 == 1 {
			key = uint64(2 + i)
		}
		recs = append(recs, datagen.Record{Key: key, Val: uint64(i*104729) % 1000})
	}
	return recs
}

// TestKernelGolden pins the simulated output of every query kernel on a
// small input: any change to the Read/Write/Malloc/Free/Charge sequence a
// kernel issues, or to the order in which threads interleave, moves at
// least one of these lines. The host-side data structures behind the
// kernels may change freely; these figures may not.
func TestKernelGolden(t *testing.T) {
	w1 := datagen.MovingCluster(6000, 300, 5)
	w2 := datagen.Zipfian(6000, 300, 0.5, 6)
	tables := datagen.Join(1500, 8, 8)
	contended := contendedMedianRecords()

	w1Spec := AggregationSpec{Records: w1, Cardinality: 300, Holistic: true}
	type goldenCase struct {
		name string
		m    *machine.Machine
		run  func(m *machine.Machine) Outcome
	}
	cases := []goldenCase{
		{"W1/FirstTouch", goldenMachine(4, vmm.FirstTouch, "ptmalloc"), func(m *machine.Machine) Outcome {
			return Aggregate(m, w1Spec)
		}},
		{"W1/Interleave", goldenMachine(4, vmm.Interleave, "tcmalloc"), func(m *machine.Machine) Outcome {
			return Aggregate(m, w1Spec)
		}},
		{"W1/contended", goldenMachine(2, vmm.FirstTouch, "jemalloc"), func(m *machine.Machine) Outcome {
			return Aggregate(m, AggregationSpec{Records: contended, Cardinality: 1600, Holistic: true})
		}},
		{"W2/FirstTouch", goldenMachine(4, vmm.FirstTouch, "ptmalloc"), func(m *machine.Machine) Outcome {
			return Aggregate(m, AggregationSpec{Records: w2, Cardinality: 300})
		}},
		{"W3", goldenMachine(4, vmm.FirstTouch, "tbbmalloc"), func(m *machine.Machine) Outcome {
			return HashJoin(m, JoinSpec{Tables: tables}).Outcome
		}},
	}
	for _, kind := range index.Kinds() {
		kind := kind
		cases = append(cases, goldenCase{"W4/" + string(kind), goldenMachine(4, vmm.Interleave, "jemalloc"), func(m *machine.Machine) Outcome {
			return IndexJoin(m, kind, tables).Outcome
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := goldenLine(c.m, c.run(c.m))
			if want := kernelGolden[c.name]; got != want {
				t.Errorf("simulated output changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// kernelGolden holds each case's goldenLine. Only a change meant to alter
// the simulated output may update it.
var kernelGolden = map[string]string{
	"W1/FirstTouch": "wall=1.828295975130605e+06 threads=[1.2251393935376953e+06 1.6329650148639847e+06 1.64636597948492e+06 1.7534593084639383e+06] counters={ThreadMigrations:0 CacheAccesses:4286 CacheMisses:3764 TLBMisses:125 LocalAccesses:1778 RemoteAccesses:1986 MinorFaults:30 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:6299 Frees:6000 LiveBytes:111320 PeakLiveBytes:185440 SlowPaths:6298 LockWaitCycles:111.73288132190586 Purges:0} rss=221184 setup=863921.7328813378 groups=297 matches=0 checksum=144455",
	"W1/Interleave": "wall=1.5816450168663631e+06 threads=[916433.6025176888 1.34412748711554e+06 1.459623111622956e+06 1.4995020191264201e+06] counters={ThreadMigrations:0 CacheAccesses:4705 CacheMisses:3961 TLBMisses:116 LocalAccesses:660 RemoteAccesses:3301 MinorFaults:24 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:6299 Frees:6000 LiveBytes:111320 PeakLiveBytes:185072 SlowPaths:792 LockWaitCycles:859505.1895687424 Purges:0} rss=196608 setup=1.0982993322032958e+06 groups=297 matches=0 checksum=144455",
	"W1/contended":  "wall=3.223628333333346e+06 threads=[2.9210076507727616e+06 2.9330466666666786e+06] counters={ThreadMigrations:0 CacheAccesses:7790 CacheMisses:4233 TLBMisses:84 LocalAccesses:2558 RemoteAccesses:1675 MinorFaults:42 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:7504 Frees:5321 LiveBytes:175672 PeakLiveBytes:222672 SlowPaths:7502 LockWaitCycles:0 Purges:1} rss=266240 setup=863740.0000000158 groups=1501 matches=0 checksum=750499",
	"W2/FirstTouch": "wall=759365.3333333316 threads=[449268.33333333326 644993.3333333335 631644.6666666665 684528.666666665] counters={ThreadMigrations:0 CacheAccesses:2921 CacheMisses:2450 TLBMisses:61 LocalAccesses:355 RemoteAccesses:2095 MinorFaults:8 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:616 Frees:7 LiveBytes:113848 PeakLiveBytes:113872 SlowPaths:611 LockWaitCycles:111.73288132190586 Purges:0} rss=131072 setup=863921.7328813378 groups=300 matches=0 checksum=6000",
	"W3":            "wall=3.1545159258807013e+06 threads=[1.9157259488049748e+06 2.568873572220813e+06 2.6126533712454024e+06 2.864381259214034e+06] counters={ThreadMigrations:0 CacheAccesses:21289 CacheMisses:10874 TLBMisses:260 LocalAccesses:4824 RemoteAccesses:6050 MinorFaults:81 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:1543 Frees:36 LiveBytes:415840 PeakLiveBytes:432224 SlowPaths:4 LockWaitCycles:0 Purges:0} rss=548864 setup=1.9427879999999378e+06 groups=0 matches=12000 checksum=11998592",
	"W4/ART":        "wall=3.4641987062113965e+06 threads=[2.3159687795249694e+06 2.135264018491929e+06 2.118901574255055e+06 2.2211137062113904e+06] counters={ThreadMigrations:0 CacheAccesses:13807 CacheMisses:9128 TLBMisses:206 LocalAccesses:1120 RemoteAccesses:8008 MinorFaults:78 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:1574 Frees:55 LiveBytes:395952 PeakLiveBytes:445104 SlowPaths:1569 LockWaitCycles:0 Purges:0} rss=536576 setup=2.458644999999978e+06 groups=0 matches=12000 checksum=11998592",
	"W4/Masstree":   "wall=3.018534773154652e+06 threads=[1.9813964750853518e+06 2.2003768125918373e+06 2.209580679480406e+06 2.266742106487983e+06] counters={ThreadMigrations:0 CacheAccesses:12184 CacheMisses:8290 TLBMisses:171 LocalAccesses:1007 RemoteAccesses:7283 MinorFaults:71 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:198 Frees:36 LiveBytes:387008 PeakLiveBytes:436160 SlowPaths:197 LockWaitCycles:0 Purges:0} rss=507904 setup=2.458644999999978e+06 groups=0 matches=12000 checksum=11998592",
	"W4/B+tree":     "wall=2.4568811927413456e+06 threads=[1.6714426666666665e+06 1.7446193828602429e+06 1.7448247454537505e+06 1.8097915260746737e+06] counters={ThreadMigrations:0 CacheAccesses:8658 CacheMisses:7239 TLBMisses:176 LocalAccesses:907 RemoteAccesses:6332 MinorFaults:72 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:111 Frees:36 LiveBytes:383504 PeakLiveBytes:432656 SlowPaths:110 LockWaitCycles:0 Purges:0} rss=512000 setup=2.458644999999978e+06 groups=0 matches=12000 checksum=11998592",
	"W4/Skip List":  "wall=3.275007135055376e+06 threads=[2.0684503333333358e+06 2.1434878963766675e+06 2.104031850867619e+06 2.213275801722042e+06] counters={ThreadMigrations:0 CacheAccesses:17647 CacheMisses:9327 TLBMisses:191 LocalAccesses:1252 RemoteAccesses:8075 MinorFaults:75 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:1542 Frees:36 LiveBytes:396136 PeakLiveBytes:445288 SlowPaths:1541 LockWaitCycles:0 Purges:0} rss=524288 setup=2.458644999999978e+06 groups=0 matches=12000 checksum=11998592",
}
