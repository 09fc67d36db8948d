package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/alloc"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/numaop"
	"repro/internal/orchestrator"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/vmm"
)

// dims sizes a workload's inputs.
type dims struct {
	AggRows, AggGroups int     // W1/W2 rows and group-by cardinality
	JoinR              int     // W3/W4 build rows; the probe side is 16x
	ServeRequests      int     // open-loop stream length per serve cell
	TPCHSF             float64 // TPC-H fragment the serving mix scans
}

// calDims are the simulator's Cal dimensions (experiments.Cal): every
// working set exceeds Machine A's 2 MiB per-node LLC.
var calDims = dims{AggRows: 300_000, AggGroups: 40_000, JoinR: 40_000, ServeRequests: 4_000, TPCHSF: 0.005}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"agg-serial", "join-parallel", "daemons-serve"}

// threadsA is Machine A's hardware thread count, the figure
// experiments' measurement baseline.
const threadsA = 16

// inputs are a workload's generated inputs. The kernels receive only
// these; the workload seed never reaches them directly.
type inputs struct {
	W1   query.AggregationSpec // holistic aggregation, MovingCluster keys
	W2   query.AggregationSpec // distributive aggregation, Zipf keys
	Join datagen.JoinTables
	// Serve holds one bursty serving spec per machine letter, with its
	// arrival rate anchored to the machine's calibrated service time.
	Serve map[string]serve.Spec

	aggRef  map[bool][2]uint64 // Holistic -> (groups, checksum)
	joinRef *[2]uint64         // (matches, checksum)
}

// generate builds the inputs a workload needs from its seed. Every seed
// for a generator is derived from the workload seed, so one seed fixes
// everything the cells see.
func generate(workload string, seed uint64, d dims) (*inputs, error) {
	in := &inputs{aggRef: map[bool][2]uint64{}}
	derive := func(k uint64) uint64 { return seed*1_000_003 + k }
	needAgg, needJoin, needServe := false, false, false
	switch workload {
	case "agg-serial":
		needAgg = true
	case "join-parallel":
		needJoin = true
	case "daemons-serve":
		needAgg, needJoin, needServe = true, true, true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if needAgg {
		in.W1 = query.AggregationSpec{
			Records:     datagen.Generate(datagen.MovingClusterDist, d.AggRows, d.AggGroups, derive(11)),
			Cardinality: d.AggGroups,
			Holistic:    true,
		}
		in.W2 = query.AggregationSpec{
			Records:     datagen.Generate(datagen.ZipfDist, d.AggRows, d.AggGroups, derive(13)),
			Cardinality: d.AggGroups,
		}
	}
	if needJoin {
		in.Join = datagen.Join(d.JoinR, datagen.DefaultJoinRatio, derive(17))
	}
	if needServe {
		in.Serve = map[string]serve.Spec{}
		for _, letter := range []string{"A", "B", "C"} {
			in.Serve[letter] = serve.Spec{
				Requests: d.ServeRequests,
				Warmup:   d.ServeRequests / 16,
				Workers:  threadsA,
				Arrival:  serve.ArrivalBursty,
				Seed:     derive(19),
				DataRows: d.AggRows,
				DataCard: d.AggGroups,
				JoinRows: d.JoinR,
				TPCHSF:   d.TPCHSF,
			}.Normalize()
		}
	}
	return in, nil
}

// calibrate anchors each serving spec's arrival rate and SLOs to the
// machine's calibrated mean service time. serve memoizes the calibration
// (and the datasets it loads) per process, so it runs once, after the
// repeated input generation.
func (in *inputs) calibrate() {
	for letter, sp := range in.Serve {
		mean := serve.CalibratedMeanService(newMachine(letter).Spec.Name, sp)
		sp.MeanGap = serve.GapFor(mean, sp.Workers, 0)
		sp.SLOs = serve.DefaultSLOs(mean)
		in.Serve[letter] = sp
	}
}

// outcome is what one cell produced. Every field but the host times is a
// deterministic function of the inputs.
type outcome struct {
	Result   machine.Result
	Groups   int
	Matches  uint64
	Checksum uint64
	Serve    *serve.Outcome
	Orch     orchestrator.Stats
	Buckets  []float64 // 18 profile buckets; nil unless profiled
}

// cell is one grid point: a fresh machine, one kernel call, one check.
type cell struct {
	Name    string
	Machine string // preset letter
	Config  machine.RunConfig
	Observe machine.ObserveOptions
	Orch    bool // attach the placement orchestrator
	Kernel  func(m *machine.Machine, in *inputs) outcome
	Check   func(o outcome, in *inputs) error
}

// cells returns a workload's grid, in the order it is run.
func cells(workload string, in *inputs) []cell {
	switch workload {
	case "agg-serial":
		// Both kernels use the serial Run contract. W1 mallocs once per
		// tuple, so it sweeps every allocator model; W2 mallocs once per
		// group, so one allocator suffices for it.
		var out []cell
		for _, a := range alloc.WorkloadNames() {
			for _, p := range []vmm.Policy{vmm.FirstTouch, vmm.Interleave} {
				cfg := baseConfig(threadsA)
				cfg.Allocator, cfg.Policy = a, p
				out = append(out, aggCell("W1/A/"+a+"/"+p.String(), "A", cfg, func(in *inputs) query.AggregationSpec { return in.W1 }))
			}
		}
		for _, p := range []vmm.Policy{vmm.FirstTouch, vmm.Interleave} {
			cfg := baseConfig(threadsA)
			cfg.Policy = p
			out = append(out, aggCell("W2/A/"+cfg.Allocator+"/"+p.String(), "A", cfg, func(in *inputs) query.AggregationSpec { return in.W2 }))
		}
		return out
	case "join-parallel":
		// Every probe phase runs under RunParallel, and only this workload
		// touches the index layer.
		cfg := baseConfig(threadsA)
		out := []cell{
			joinCell("W3-hash/A", "A", cfg, func(m *machine.Machine, in *inputs) query.JoinOutcome {
				return query.HashJoin(m, query.JoinSpec{Tables: in.Join})
			}),
			joinCell("MPSM/A", "A", cfg, func(m *machine.Machine, in *inputs) query.JoinOutcome {
				return numaop.MPSMJoin(m, query.JoinSpec{Tables: in.Join})
			}),
		}
		for _, k := range index.Kinds() {
			out = append(out, joinCell("W4-"+string(k)+"/A", "A", cfg, func(m *machine.Machine, in *inputs) query.JoinOutcome {
				return query.IndexJoin(m, k, in.Join)
			}))
		}
		return out
	case "daemons-serve":
		// AutoNUMA and THP migrate, promote and split pages; the serving
		// cells add the orchestrator's ticks and the span hooks.
		var out []cell
		for _, letter := range []string{"A", "B"} {
			cfg := machine.DefaultConfig(0) // all hardware threads
			out = append(out,
				aggCell("W1-daemons/"+letter, letter, cfg, func(in *inputs) query.AggregationSpec { return in.W1 }),
				joinCell("W3-daemons/"+letter, letter, cfg, func(m *machine.Machine, in *inputs) query.JoinOutcome {
					return query.HashJoin(m, query.JoinSpec{Tables: in.Join})
				}))
		}
		for _, letter := range []string{"A", "B", "C"} {
			for _, adaptive := range []bool{false, true} {
				out = append(out, serveCell(letter, adaptive))
			}
		}
		return out
	}
	return nil
}

// baseConfig is the figure experiments' placement baseline: Sparse affinity,
// kernel daemons off.
func baseConfig(threads int) machine.RunConfig {
	return machine.RunConfig{
		Threads:   threads,
		Placement: machine.PlaceSparse,
		Policy:    vmm.FirstTouch,
		Allocator: "ptmalloc",
		Seed:      1,
	}
}

func aggCell(name, letter string, cfg machine.RunConfig, spec func(*inputs) query.AggregationSpec) cell {
	return cell{
		Name: name, Machine: letter, Config: cfg,
		Kernel: func(m *machine.Machine, in *inputs) outcome {
			o := query.Aggregate(m, spec(in))
			return outcome{Result: o.Result, Groups: o.Groups, Checksum: o.Checksum}
		},
		Check: func(o outcome, in *inputs) error {
			s := spec(in)
			ref, ok := in.aggRef[s.Holistic]
			if !ok {
				g, c := query.ReferenceAggregate(s)
				ref = [2]uint64{uint64(g), c}
				in.aggRef[s.Holistic] = ref
			}
			if uint64(o.Groups) != ref[0] || o.Checksum != ref[1] {
				return fmt.Errorf("aggregate: groups %d checksum %d, reference %d %d", o.Groups, o.Checksum, ref[0], ref[1])
			}
			return nil
		},
	}
}

func joinCell(name, letter string, cfg machine.RunConfig, run func(*machine.Machine, *inputs) query.JoinOutcome) cell {
	return cell{
		Name: name, Machine: letter, Config: cfg,
		Kernel: func(m *machine.Machine, in *inputs) outcome {
			o := run(m, in)
			return outcome{Result: o.Result, Matches: o.Matches, Checksum: o.Checksum}
		},
		Check: func(o outcome, in *inputs) error {
			if in.joinRef == nil {
				mt, c := query.ReferenceJoin(in.Join)
				in.joinRef = &[2]uint64{mt, c}
			}
			if o.Matches != in.joinRef[0] || o.Checksum != in.joinRef[1] {
				return fmt.Errorf("join: matches %d checksum %d, reference %d %d", o.Matches, o.Checksum, in.joinRef[0], in.joinRef[1])
			}
			return nil
		},
	}
}

// serveCell is one bursty open-loop serving run on the OS-default
// configuration, static or with the orchestrator attached, with the event
// trace, the cycle profile, snapshots and spans all on (as the serve-adapt
// experiment runs it).
func serveCell(letter string, adaptive bool) cell {
	name := "serve-static/" + letter
	if adaptive {
		name = "serve-adaptive/" + letter
	}
	return cell{
		Name: name, Machine: letter, Config: machine.DefaultConfig(threadsA),
		Observe: machine.ObserveOptions{Trace: true, Profile: true, Spans: true, SnapEvery: 1e5},
		Orch:    adaptive,
		Kernel: func(m *machine.Machine, in *inputs) outcome {
			so := serve.Run(m, in.Serve[letter])
			return outcome{Result: so.Result, Serve: so}
		},
		Check: func(o outcome, in *inputs) error {
			sp := in.Serve[letter]
			requests := 0
			for _, s := range o.Serve.Spans {
				if s.Kind == span.KindRequest {
					requests++
				}
			}
			if o.Serve.Metrics.Requests != sp.Requests-sp.Warmup || requests != sp.Requests {
				return fmt.Errorf("serve: %d measured and %d request spans, want %d and %d",
					o.Serve.Metrics.Requests, requests, sp.Requests-sp.Warmup, sp.Requests)
			}
			return nil
		},
	}
}

// newMachine builds a fresh preset machine by letter.
func newMachine(letter string) *machine.Machine {
	switch letter {
	case "A":
		return machine.NewA()
	case "B":
		return machine.NewB()
	case "C":
		return machine.NewC()
	}
	panic("hostbench: unknown machine " + letter)
}

// digest hashes a cell's deterministic outputs.
func (o outcome) digest() string {
	h := fnv.New64a()
	r := o.Result
	fmt.Fprintf(h, "%x|%+v|%+v|%d|%d|%d|%d|%+v", math.Float64bits(r.WallCycles), r.Counters, r.Alloc, r.RSSBytes,
		o.Groups, o.Matches, o.Checksum, o.Orch)
	if o.Serve != nil {
		fmt.Fprintf(h, "|%+v|%d", o.Serve.Metrics, len(o.Serve.Spans))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// combineDigests hashes per-cell digests into one, in cell-name order.
func combineDigests(byCell map[string]string) string {
	names := make([]string, 0, len(byCell))
	for n := range byCell {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s;", n, byCell[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
