package machine

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// parallelEquivBody is the round engine's golden workload: dense runs,
// strides, random scalar probes, cross-node sharing, allocation and
// pure-CPU work, with every cross-thread interaction confined to the
// simulated memory API. The shared buffer is allocated by a setup Run and
// only its address crosses threads, read-only.
func parallelEquivBody(shared uint64) func(*Thread) {
	const bufBytes = 1 << 20
	return func(t *Thread) {
		base := t.Malloc(bufBytes)
		t.WriteRun(base, 8, bufBytes/8)
		t.ReadRun(base, 64, bufBytes/64)
		t.ReadStrided(base, 8, 4096, bufBytes/4096)
		t.WriteStrided(base, 16, 192, 1024)
		rng := t.RNG()
		for i := 0; i < 512; i++ {
			off := rng.Uint64n(bufBytes/8) * 8
			t.Read(base+off, 8)
		}
		t.Charge(3000)
		// Cross-node traffic: every thread reads and rewrites the head of
		// the shared region, so node groups of one round write the same
		// lines and the directory overlay decides who owns them.
		t.ReadRun(shared, 8, 2048)
		t.WriteRun(shared, 8, 2048)
		t.Free(base, bufBytes)
	}
}

// roundGoldenLine drives one profiled and traced run of parallelEquivBody
// and renders everything it makes observable: the result, the profile's
// bucket totals, and the trace stream's length and FNV-64a digest. Floats
// print in Go's shortest round-trip form, so two lines are equal only if
// every figure is bit-identical.
func roundGoldenLine(mk func() *Machine, cfg RunConfig, threads int) string {
	m := mk()
	m.Configure(cfg)
	tel := m.Observe(ObserveOptions{Trace: true, Profile: true})
	var shared uint64
	m.Run(1, func(t *Thread) {
		shared = t.Malloc(1 << 20)
		t.WriteRun(shared, 64, (1<<20)/64)
	})
	res := m.Run(threads, parallelEquivBody(shared))
	events := tel.Events()
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return fmt.Sprintf("wall=%v counters=%+v alloc=%+v rss=%d buckets=%v events=%d trace=%016x",
		res.WallCycles, res.Counters, res.Alloc, res.RSSBytes, tel.Profile().Totals(), len(events), h.Sum64())
}

// TestRunParallelEquivalence pins the round engine's output across the
// full configuration sweep (all machines, placements, policies,
// allocators, daemons): result, counters, cycle attribution and the
// complete trace stream. The name dates from when node groups could also
// run on several host cores; it is kept so the test's history stays
// continuous.
func TestRunParallelEquivalence(t *testing.T) {
	for _, tc := range profileConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			got := roundGoldenLine(tc.machine, tc.cfg, tc.threads)
			if want := roundGolden[tc.name]; got != want {
				t.Errorf("simulated output changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRunParallelLargeTopologies pins the round engine on the big presets:
// D and E have 8 and 16 node groups, two threads each.
func TestRunParallelLargeTopologies(t *testing.T) {
	for _, mk := range []func() *Machine{NewD, NewE} {
		m := mk()
		t.Run(m.Spec.Name, func(t *testing.T) {
			threads := m.Spec.Topo.Nodes() * 2
			got := roundGoldenLine(mk, testConfig(threads), threads)
			if want := roundGolden[m.Spec.Name]; got != want {
				t.Errorf("simulated output changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// roundGolden holds each case's roundGoldenLine. Only a change meant to
// alter the simulated output may update it.
var roundGolden = map[string]string{
	"A-default":        "wall=1.5238161974594513e+08 counters={ThreadMigrations:390 CacheAccesses:575180 CacheMisses:539124 TLBMisses:19751 LocalAccesses:303510 RemoteAccesses:235614 MinorFaults:4352 PageMigrations:1632 HugePromotions:0 HugeSplits:0} alloc={Mallocs:17 Frees:16 LiveBytes:1048576 PeakLiveBytes:17825792 SlowPaths:0 LockWaitCycles:18079.56286706419 Purges:4096} rss=1048576 buckets=[48000 7.578832e+06 1.44224e+06 3.0186170422508013e+08 1.9150005799861148e+08 1.9301646829980093e+08 7.318707745163034e+07 1.77759e+06 7.8336e+06 3.58059e+06 13250 18079.56286706419 4.68e+06 4.872e+07 1.9584000000000112e+06 4.431022e+08 342500 7.350119473445207e+08] events=33946 trace=663f8badfffe4fc1",
	"A-tuned":          "wall=3.076354276595946e+07 counters={ThreadMigrations:0 CacheAccesses:572923 CacheMisses:280710 TLBMisses:4416 LocalAccesses:35206 RemoteAccesses:245504 MinorFaults:4352 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:17 Frees:16 LiveBytes:1048576 PeakLiveBytes:17825792 SlowPaths:0 LockWaitCycles:0 Purges:4096} rss=1048576 buckets=[48000 7.58786e+06 1.168852e+07 3.1508272203345016e+07 1.6998988446307048e+08 1.9760728273190466e+08 7.51600049083639e+07 397440 7.8336e+06 117520 10920 0 0 0 0 0 0 0] events=5256 trace=102bc1820ed2d254",
	"B-sparse-ft":      "wall=5.026507744164416e+06 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:82688 TLBMisses:1296 LocalAccesses:81920 RemoteAccesses:768 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.9128e+06 1.6435248011283152e+07 168960.00000000003 0 0 116640 2.304e+06 0 3650 558.6644066095294 0 0 0 0 0 0] events=1285 trace=b8d9e74f4c72077f",
	"C-sparse-ft":      "wall=3.944723221613144e+06 counters={ThreadMigrations:0 CacheAccesses:294638 CacheMisses:148224 TLBMisses:2336 LocalAccesses:147456 RemoteAccesses:768 MinorFaults:2304 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:9 Frees:8 LiveBytes:1048576 PeakLiveBytes:9437184 SlowPaths:0 LockWaitCycles:3292.9945138179623 Purges:2048} rss=1048576 buckets=[24000 3.793992e+06 5.85656e+06 1.9710411239566725e+07 215040.00000000006 0 0 210240 4.1472e+06 0 6850 3292.9945138179623 0 0 0 0 0 0] events=2313 trace=9b1365dc139727e0",
	"B-dense":          "wall=6.139525792644604e+06 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:81920 TLBMisses:1296 LocalAccesses:81920 RemoteAccesses:0 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.94352e+06 2.104092023905344e+07 0 0 0 116640 2.304e+06 0 3650 558.6644066095294 0 0 0 0 0 0] events=1285 trace=107d6d4234efaa85",
	"B-interleave":     "wall=5.2658557328813225e+06 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:82688 TLBMisses:1296 LocalAccesses:20672 RemoteAccesses:62016 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.9128e+06 4.1344e+06 1.3643520000000002e+07 0 0 116640 2.304e+06 0 3650 558.6644066095294 0 0 0 0 0 0] events=1285 trace=d4890e213cfe73d9",
	"B-preferred":      "wall=6.674757431922089e+06 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:82688 TLBMisses:1296 LocalAccesses:32768 RemoteAccesses:49920 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.9128e+06 7.71783005976432e+06 1.4884317937538486e+07 0 0 116640 2.304e+06 69420 3650 558.6644066095294 0 0 0 0 0 0] events=1819 trace=fe0a85df69183250",
	"A-autonuma":       "wall=1.143957551349828e+07 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:82688 TLBMisses:1296 LocalAccesses:81920 RemoteAccesses:768 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.9128e+06 4.466139435245995e+07 327679.99999999994 191146.66666666622 0 116640 2.304e+06 33280 3650 558.6644066095294 0 0 0 0 0 0] events=1541 trace=e8c9bb279fabaaf4",
	"C-thp":            "wall=3.954469066215153e+06 counters={ThreadMigrations:0 CacheAccesses:155508 CacheMisses:82688 TLBMisses:1296 LocalAccesses:81920 RemoteAccesses:768 MinorFaults:1280 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:5 Frees:4 LiveBytes:1048576 PeakLiveBytes:5242880 SlowPaths:0 LockWaitCycles:558.6644066095294 Purges:1024} rss=1048576 buckets=[12000 1.897008e+06 2.9128e+06 1.0922666666667053e+07 215040.00000000006 0 0 116640 2.304e+06 0 3650 558.6644066095294 0 0 0 0 40000 0] events=1285 trace=17a45dd6cda6ddb6",
	"A-migratey":       "wall=1.424506201110106e+08 counters={ThreadMigrations:337 CacheAccesses:574684 CacheMisses:535651 TLBMisses:18920 LocalAccesses:293276 RemoteAccesses:242375 MinorFaults:4352 PageMigrations:1455 HugePromotions:0 HugeSplits:0} alloc={Mallocs:17 Frees:16 LiveBytes:1048576 PeakLiveBytes:17825792 SlowPaths:0 LockWaitCycles:18079.56286706419 Purges:4096} rss=1048576 buckets=[48000 7.580816e+06 1.56132e+06 2.966744895335724e+08 1.8801351537701857e+08 1.8648463319542265e+08 9.206778881235336e+07 1.7028e+06 7.8336e+06 4.3888e+06 13250 18079.56286706419 4.044e+06 4.35e+07 1.7460000000000112e+06 3.309214e+08 345000 7.783821068187284e+08] events=39932 trace=57568529ca85f16a",
	"B-oversubscribed": "wall=2.0693824215501394e+07 counters={ThreadMigrations:0 CacheAccesses:2248344 CacheMisses:1070369 TLBMisses:52164 LocalAccesses:1069601 RemoteAccesses:768 MinorFaults:16640 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:65 Frees:64 LiveBytes:1048576 PeakLiveBytes:68157440 SlowPaths:0 LockWaitCycles:117000 Purges:16384} rss=1048576 buckets=[192000 3.0328224e+07 4.7119e+07 5.44147859014508e+08 474185.4499704722 0 0 4.69476e+06 2.9952e+07 99840 51650 117000 0 0 0 0 0 6.532241124644963e+08] events=17473 trace=9bdce01e036d8ea0",
	"B-jemalloc":       "wall=5.142197334834185e+06 counters={ThreadMigrations:0 CacheAccesses:294638 CacheMisses:148224 TLBMisses:2336 LocalAccesses:147456 RemoteAccesses:768 MinorFaults:2304 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:9 Frees:8 LiveBytes:1048576 PeakLiveBytes:9437184 SlowPaths:0 LockWaitCycles:0 Purges:2048} rss=1048576 buckets=[24000 3.793992e+06 5.85656e+06 2.9758938669667877e+07 168960.60718275193 0 0 210240 4.1472e+06 43290 5980 0 0 0 0 0 0 0] events=2637 trace=0a440760172df191",
	"B-tcmalloc":       "wall=5.143212055532467e+06 counters={ThreadMigrations:0 CacheAccesses:294638 CacheMisses:148224 TLBMisses:2336 LocalAccesses:147456 RemoteAccesses:768 MinorFaults:2304 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:9 Frees:8 LiveBytes:1048576 PeakLiveBytes:9437184 SlowPaths:0 LockWaitCycles:8232.486284544906 Purges:2048} rss=1048576 buckets=[24000 3.793992e+06 5.85656e+06 2.9758938669667877e+07 168960.60718275193 0 0 210240 4.1472e+06 43290 6820 8232.486284544906 0 0 0 0 0 0] events=2646 trace=2f79c6dfa63988c3",
	"B-tbbmalloc":      "wall=5.142157334834185e+06 counters={ThreadMigrations:0 CacheAccesses:294638 CacheMisses:148224 TLBMisses:2336 LocalAccesses:147456 RemoteAccesses:768 MinorFaults:2304 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:9 Frees:8 LiveBytes:1048576 PeakLiveBytes:9437184 SlowPaths:0 LockWaitCycles:0 Purges:2048} rss=1048576 buckets=[24000 3.793992e+06 5.85656e+06 2.9758938669667877e+07 168960.60718275193 0 0 210240 4.1472e+06 43290 5640 0 0 0 0 0 0 0] events=2637 trace=078647559c2b1bb4",
	"B-mcmalloc":       "wall=5.142227334834185e+06 counters={ThreadMigrations:0 CacheAccesses:294638 CacheMisses:148224 TLBMisses:2336 LocalAccesses:147456 RemoteAccesses:768 MinorFaults:2304 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:9 Frees:8 LiveBytes:1048576 PeakLiveBytes:9437184 SlowPaths:0 LockWaitCycles:0 Purges:2048} rss=1048576 buckets=[24000 3.793992e+06 5.85656e+06 2.9758938669667877e+07 168960.60718275193 0 0 210240 4.1472e+06 43290 6240 0 0 0 0 0 0 0] events=2637 trace=1454e3721b1e031c",
	"Machine D":        "wall=3.6545291703644274e+06 counters={ThreadMigrations:0 CacheAccesses:573181 CacheMisses:280320 TLBMisses:4416 LocalAccesses:278528 RemoteAccesses:1792 MinorFaults:4352 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:17 Frees:16 LiveBytes:1048576 PeakLiveBytes:17825792 SlowPaths:0 LockWaitCycles:18079.56286706419 Purges:4096} rss=1048576 buckets=[48000 7.586828e+06 1.171444e+07 3.2523832378569126e+07 152917.33333333296 188160 0 397440 7.8336e+06 0 13250 18079.56286706419 0 0 0 0 0 0] events=4369 trace=7096e59b7d00054d",
	"Machine E":        "wall=3.623158985857832e+06 counters={ThreadMigrations:0 CacheAccesses:1129493 CacheMisses:544512 TLBMisses:8576 LocalAccesses:540672 RemoteAccesses:3840 MinorFaults:8448 PageMigrations:0 HugePromotions:0 HugeSplits:0} alloc={Mallocs:33 Frees:32 LiveBytes:1048576 PeakLiveBytes:34603008 SlowPaths:0 LockWaitCycles:59400 Purges:8192} rss=1048576 buckets=[96000 1.5175596e+07 2.339924e+07 6.1850538524730824e+07 67299.07619372348 118504.89503677376 563264.0072735553 771840 1.52064e+07 28600 26050 59400 0 0 0 0 0 0] events=8701 trace=db2a87a898e664a3",
}

// TestOverlaySemantics pins the round overlay's visibility rules: a node
// group reads its own writes of the round and the round-start value of
// every line another group wrote; when two groups write one line in one
// round the later (higher-node) group's value survives the boundary; and
// entries of an earlier round are dead.
func TestOverlaySemantics(t *testing.T) {
	base := make([]uint32, 8)
	base[1], base[2] = 100, 200
	o := overlay{entries: make([]overlayEntry, len(base))}

	o.begin()
	o.write(1, 0, 10) // node 0 writes line 1
	if got := o.read(base, 1, 0); got != 10 {
		t.Errorf("node 0 reads its own write as %d, want 10", got)
	}
	if got := o.read(base, 1, 1); got != 100 {
		t.Errorf("node 1 reads node 0's write as %d, want round-start 100", got)
	}
	o.write(1, 1, 11) // node 1 writes the same line later in the round
	o.write(2, 2, 22)
	o.write(2, 2, 23) // a group's rewrite replaces its own entry
	if got := o.read(base, 2, 2); got != 23 {
		t.Errorf("node 2 reads its rewrite as %d, want 23", got)
	}
	o.merge(base)
	if base[1] != 11 || base[2] != 23 {
		t.Errorf("after merge base[1]=%d base[2]=%d, want 11 (higher node wins) and 23", base[1], base[2])
	}
	if len(o.log) != 2 {
		t.Errorf("log holds %d indices, want 2 (one per written line)", len(o.log))
	}

	o.begin()
	base[1] = 50
	if got := o.read(base, 1, 1); got != 50 {
		t.Errorf("node 1 reads last round's entry: got %d, want base 50", got)
	}
	o.merge(base)
	if base[1] != 50 || base[2] != 23 {
		t.Errorf("an empty round changed base: base[1]=%d base[2]=%d", base[1], base[2])
	}
}
