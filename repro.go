// Package repro is a faithful, simulator-backed reproduction of
// "The Art of Efficient In-memory Query Processing on NUMA Systems: a
// Systematic Approach" (Memarzia, Ray, Bhavsar — ICDE 2020).
//
// It provides:
//
//   - a deterministic NUMA hardware simulator (topologies, caches, TLBs,
//     placement policies, AutoNUMA and THP kernel daemons, OS scheduler
//     behaviour) with presets for the paper's three machines;
//   - behavioural models of seven dynamic memory allocators;
//   - the paper's five workloads: holistic and distributive aggregation,
//     hash join, index nested-loop join over four in-memory indexes, and
//     TPC-H on five database-engine profiles;
//   - the systematic-tuning methodology itself: the Table IV parameter
//     space, experiment drivers for every figure and table, and the
//     Figure 10 decision flowchart as an executable advisor.
//
// This package is a facade: it re-exports the library's primary types and
// constructors so applications need a single import. The implementation
// lives under internal/ (see DESIGN.md for the system inventory).
//
// Quick start:
//
//	m := repro.NewMachineA()
//	m.Configure(repro.TunedConfig(16))
//	out := repro.Aggregate(m, repro.AggregationSpec{
//	    Records:     repro.MovingCluster(100000, 10000, 1),
//	    Cardinality: 10000,
//	    Holistic:    true,
//	})
//	fmt.Println(m.Seconds(out.Result.WallCycles))
package repro

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// Machine simulation types.
type (
	// Machine is a simulated NUMA system.
	Machine = machine.Machine
	// Spec is a machine's hardware description (Table II).
	Spec = machine.Spec
	// Thread is a simulated worker thread handed to workload bodies.
	Thread = machine.Thread
	// RunConfig is one point of the paper's parameter space (Table IV).
	RunConfig = machine.RunConfig
	// Result is a completed run: wall cycles plus the perf-counter profile.
	Result = machine.Result
	// Counters is the simulated perf-counter profile (Table III).
	Counters = machine.Counters
	// Placement is the thread placement strategy (None/Sparse/Dense).
	Placement = machine.Placement
	// Policy is the memory placement policy (numactl equivalents).
	Policy = vmm.Policy
)

// Thread placement strategies.
const (
	PlaceNone   = machine.PlaceNone
	PlaceSparse = machine.PlaceSparse
	PlaceDense  = machine.PlaceDense
)

// Memory placement policies.
const (
	FirstTouch = vmm.FirstTouch
	Interleave = vmm.Interleave
	Localalloc = vmm.Localalloc
	Preferred  = vmm.Preferred
)

// Machine constructors for the paper's three evaluation systems.
var (
	NewMachineA = machine.NewA
	NewMachineB = machine.NewB
	NewMachineC = machine.NewC
	NewMachine  = machine.New
	SpecA       = machine.SpecA
	SpecB       = machine.SpecB
	SpecC       = machine.SpecC
)

// DefaultConfig returns the out-of-the-box OS configuration (the paper's
// baseline); TunedConfig the paper's recommended configuration.
var (
	DefaultConfig = machine.DefaultConfig
	TunedConfig   = machine.TunedConfig
)

// Workload types and runners.
type (
	// Record is a key/value tuple of the synthetic datasets.
	Record = datagen.Record
	// Distribution names an aggregation dataset distribution.
	Distribution = datagen.Distribution
	// AggregationSpec describes a W1/W2 aggregation run.
	AggregationSpec = query.AggregationSpec
	// JoinSpec describes a W3 hash join run.
	JoinSpec = query.JoinSpec
	// JoinTables is the 1:16 decision-support join dataset.
	JoinTables = datagen.JoinTables
	// Outcome reports a workload execution.
	Outcome = query.Outcome
	// JoinOutcome adds the build/probe phase split.
	JoinOutcome = query.JoinOutcome
	// IndexKind names one of the four W4 indexes.
	IndexKind = index.Kind
)

// Dataset generators (Section IV-B).
var (
	MovingCluster = datagen.MovingCluster
	Sequential    = datagen.Sequential
	Zipfian       = datagen.Zipfian
	JoinData      = datagen.Join
)

// Workload executors (W1-W4).
var (
	Aggregate = query.Aggregate
	HashJoin  = query.HashJoin
	IndexJoin = query.IndexJoin
)

// The four in-memory indexes of W4.
const (
	ART      = index.ARTKind
	Masstree = index.MasstreeKind
	BTree    = index.BTreeKind
	SkipList = index.SkipListKind
)

// Tuning methodology (the paper's contribution).
type (
	// Traits describes a workload to the decision flowchart.
	Traits = core.Traits
	// Recommendation is the flowchart's output configuration.
	Recommendation = core.Recommendation
)

// Advise walks the Figure 10 decision flowchart; Space enumerates the
// Table IV parameter space; Speedup computes relative latency reduction.
var (
	Advise  = core.Advise
	Space   = core.Space
	Speedup = core.Speedup
)

// TPC-H (W5).
type (
	// TPCHDB is a generated TPC-H database.
	TPCHDB = tpch.DB
	// EngineProfile models one of the five database systems.
	EngineProfile = tpch.Profile
	// TPCHHarness measures warm query latencies the way the paper does.
	TPCHHarness = tpch.Harness
	// QueryResult is one TPC-H query execution.
	QueryResult = tpch.QueryResult
)

// TPC-H constructors.
var (
	GenerateTPCH   = tpch.Generate
	EngineProfiles = tpch.Profiles
	EngineByName   = tpch.ProfileByName
	NewTPCHHarness = tpch.NewHarness
)

// Event tracing. Attach a TraceRecorder to a Machine with
// Machine.Observe(ObserveOptions{Sink: rec}) and every simulator event — thread migrations, page faults and migrations,
// hugepage collapses and splits, AutoNUMA scan passes, allocator
// lock-contention stalls, coherence transfers — is recorded with its
// simulated cycle timestamp. A nil sink costs nothing. See
// examples/trace for an end-to-end walkthrough.
type (
	// TraceEvent is one cycle-stamped simulator event.
	TraceEvent = trace.Event
	// TraceKind enumerates the event types.
	TraceKind = trace.Kind
	// TraceSink receives events as they happen.
	TraceSink = trace.Sink
	// TraceRecorder is the standard in-memory sink.
	TraceRecorder = trace.Recorder
	// MachineSnapshot is one periodic counter sample (see
	// ObserveOptions.SnapEvery).
	MachineSnapshot = machine.Snapshot
	// TraceProcess groups one machine's events for Chrome trace export.
	TraceProcess = report.TraceProcess
)

// NewTraceRecorder builds an in-memory event sink; TraceKinds lists every
// event type.
var (
	NewTraceRecorder = trace.NewRecorder
	TraceKinds       = trace.Kinds
)

// Unified observability and actuation. Machine.Observe(ObserveOptions)
// configures tracing, cycle attribution, periodic counter snapshots and
// counter rescoping in one call and returns a read-only Telemetry view.
// Telemetry and Actuator are the two seams a placement daemon programs
// against; see Machine.SetDaemon.
type (
	// ObserveOptions selects what a Machine records.
	ObserveOptions = machine.ObserveOptions
	// Telemetry is a read-only view over a machine's live instrumentation.
	Telemetry = machine.Telemetry
	// Actuator is the placement-control surface handed to daemons.
	Actuator = machine.Actuator
	// HotPage is one sampled page from Telemetry.HotPages.
	HotPage = machine.HotPage
)

// The adaptive placement orchestrator (see internal/orchestrator): an
// online feedback daemon that migrates threads and pages and reweights
// the interleave rotor from live telemetry, gated by hysteresis and a
// migration-cost budget.
type (
	// Orchestrator is the adaptive placement daemon.
	Orchestrator = orchestrator.Orchestrator
	// OrchestratorConfig tunes its feedback loop.
	OrchestratorConfig = orchestrator.Config
	// OrchestratorStats counts its actions.
	OrchestratorStats = orchestrator.Stats
)

// NewOrchestrator builds an orchestrator; attach it to a machine with
// Attach. DefaultOrchestratorConfig is the adapt experiment's tuning.
var (
	NewOrchestrator           = orchestrator.New
	DefaultOrchestratorConfig = orchestrator.DefaultConfig
)

// ChromeTrace writes events as a Chrome trace-event JSON file (loadable
// in Perfetto or chrome://tracing); TraceSummary and TraceCostHistogram
// aggregate an event stream into report tables.
var (
	ChromeTrace        = report.ChromeTrace
	TraceSummary       = report.TraceSummary
	TraceCostHistogram = report.TraceCostHistogram
)

// Experiment drivers and the structured results pipeline.
type (
	// Experiment describes one registered experiment: id, title, the
	// paper artifact it reproduces, and its driver (call Run).
	Experiment = experiments.Descriptor
	// ExperimentResult is a driver's unified output: rendered tables plus
	// one BenchRecord per grid cell.
	ExperimentResult = experiments.Result
	// BenchRecord is one grid cell's structured result, serializable as
	// JSONL under schema repro/bench/v2 (the strict reader also accepts
	// v1 files written before cycle attribution existed).
	BenchRecord = experiments.Record
	// Scale sizes an experiment's datasets.
	Scale = experiments.Scale
	// Table is a rendered result table (text, CSV or JSON).
	Table = report.Table
)

// Experiment registry access and the JSONL results sink.
var (
	// Experiments lists every registered experiment sorted by id.
	Experiments = experiments.Descriptors
	// ExperimentByID resolves an experiment id ("fig5a", ...).
	ExperimentByID = experiments.Lookup
	// WriteJSONL and ReadJSONL serialize bench records; ReadJSONL
	// validates the schema strictly.
	WriteJSONL = experiments.WriteJSONL
	ReadJSONL  = experiments.ReadJSONL
)

// Experiment scales, smallest to largest.
var (
	ScaleTiny    = experiments.Tiny
	ScaleSmall   = experiments.Small
	ScaleCal     = experiments.Cal
	ScaleDefault = experiments.Default
)

// Cycle attribution. Turn it on with
// Machine.Observe(ObserveOptions{Profile: true}) and every
// charged cycle is tagged with a component bucket — compute, cache hits,
// DRAM by hop distance, page-table walks, fault service, kernel daemons,
// allocator work and lock stalls, thread and page migration, TLB
// shootdowns, timesharing — accumulated per thread and per NUMA node
// alongside an N×N node access matrix. Attribution is observation-only:
// the simulated timing is bit-identical with it on or off, and a nil
// profiler costs one pointer check per charge. See examples/profile.
type (
	// CycleProfile is a machine's accumulated attribution: per-thread and
	// per-node bucket breakdowns plus the node access matrix.
	CycleProfile = machine.Profile
	// CycleBucket names one attribution component.
	CycleBucket = machine.Bucket
	// ThreadBreakdown is one thread's per-bucket cycles.
	ThreadBreakdown = machine.ThreadBreakdown
	// NodeBreakdown is one NUMA node's per-bucket cycles.
	NodeBreakdown = machine.NodeBreakdown
	// BreakdownColumn pairs a name with a profile for BreakdownTable.
	BreakdownColumn = report.BreakdownColumn
	// FoldedProfile pairs a name with a profile for FoldedStacks.
	FoldedProfile = report.FoldedProfile
)

// CycleBuckets lists every attribution bucket in rendering order.
var CycleBuckets = machine.Buckets

// Breakdown rendering and export: BreakdownTable renders a
// percentage-stacked component comparison, NodeMatrixTable a numastat-style
// access matrix, and FoldedStacks writes profiles in folded-stack format
// (speedscope- and flamegraph-loadable). SetCellProfiling attaches the
// profiler to every experiment grid cell, filling each BenchRecord's
// breakdown and profile fields.
var (
	BreakdownTable   = report.BreakdownTable
	NodeMatrixTable  = report.NodeMatrixTable
	FoldedStacks     = report.FoldedStacks
	SetCellProfiling = experiments.SetCellProfiling
)

// Request-level spans. Machines observed with ObserveOptions{Spans: true}
// mark themselves for harness-side span assembly: the serving harness and
// the TPC-H CLI build a deterministic hierarchy (session → request →
// queue-wait/service/operator phase) from telemetry windows, each span
// carrying its cycle-bucket delta and counter window. Collection is
// observation-only — simulated results are bit-identical with spans on or
// off — and the JSONL encoding (schema repro/spans/v1) round-trips through
// a strict reader. SpanBlame joins a tail cohort of spans against the
// migration-family cycles inside their service windows, splitting each
// mechanism's cycles across the initiators that drove it.
type (
	// Span is one node of the request hierarchy.
	Span = span.Span
	// SpanBlameRow is one (mechanism, initiator) attribution row.
	SpanBlameRow = span.BlameRow
)

// The span JSONL schema and the hierarchy levels (Span.Kind values).
const (
	SpanSchema = span.Schema

	SpanSession   = span.KindSession
	SpanRequest   = span.KindRequest
	SpanQueueWait = span.KindQueueWait
	SpanService   = span.KindService
	SpanPhase     = span.KindPhase
)

// Span serialization and tail attribution. SetCellSpans attaches span
// collection to every subsequent experiment grid cell that serves
// requests, filling each ExperimentResult's Spans field.
var (
	WriteSpansJSONL = span.WriteJSONL
	ReadSpansJSONL  = span.ReadJSONL
	SpanBlame       = span.Blame
	SetCellSpans    = experiments.SetCellSpans
)

// Event initiators. Every TraceEvent carries the mechanism that caused
// it — a demand access, the OS load balancer, the AutoNUMA or khugepaged
// daemon, the adaptive orchestrator, or allocator internals — so event
// streams can be cut by cause as well as by kind.
type (
	// TraceInitiator identifies what caused an event.
	TraceInitiator = trace.Initiator
)

// The initiator values, and the orchestrator's own journal event kinds.
const (
	InitDemand       = trace.InitDemand
	InitOS           = trace.InitOS
	InitAutoNUMA     = trace.InitAutoNUMA
	InitKhugepaged   = trace.InitKhugepaged
	InitOrchestrator = trace.InitOrchestrator
	InitAlloc        = trace.InitAlloc

	OrchDecision = trace.OrchDecision
	OrchReweight = trace.OrchReweight
)

// TraceInitiators lists every initiator in emission-stable order.
var TraceInitiators = trace.Initiators

// The orchestrator's decision journal: one structured record per tick
// (telemetry digest, per-thread rule verdicts, actions with modeled cost,
// budget bank balance), read back with Orchestrator.Journal and rendered
// by DecisionsTable.
type (
	// OrchestratorDecision is one tick's journal record.
	OrchestratorDecision = orchestrator.Decision
	// OrchestratorAction is one planned action with its modeled cost.
	OrchestratorAction = orchestrator.Action
	// OrchestratorThreadEval is one thread's rule evaluation in a tick.
	OrchestratorThreadEval = orchestrator.ThreadEval
	// DecisionsCell pairs a cell label with a journal for DecisionsTable.
	DecisionsCell = report.DecisionsCell
	// BlameCell pairs a cell label with blame rows for BlameTable.
	BlameCell = report.BlameCell
)

// DecisionsTable renders decision journals as a report table; BlameTable
// renders span blame attributions.
var (
	DecisionsTable = report.DecisionsTable
	BlameTable     = report.BlameTable
)

// The orchestrator-under-serving experiment: serving machines A/B/C under
// bursty arrivals, static versus adaptive placement, reporting the p999
// delta attributable to online migration plus the span-based blame join
// and the decision journal.
type (
	// ServeAdaptResult is the experiment's output grid.
	ServeAdaptResult = experiments.ServeAdaptResult
	// ServeAdaptCell is one (machine, static|adaptive) cell.
	ServeAdaptCell = experiments.ServeAdaptCell
)

// ServeAdapt runs the orchestrator-under-serving experiment.
var ServeAdapt = experiments.ServeAdapt
