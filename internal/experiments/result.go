package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/trace"
)

// SchemaVersion identifies the JSONL record layout below. Bump it when a
// field changes meaning; readers reject records from other schemas.
//
// One Record is one grid cell of one experiment, serialized as a single
// JSON object per line:
//
//	schema      string  always "repro/bench/v1"
//	experiment  string  registry id, e.g. "fig5a"
//	cell        string  cell name, unique within the experiment
//	labels      object  cell coordinates, e.g. {"policy": "Interleave"}
//	machine     string  simulated machine name ("Machine A", ...)
//	config      object  the full RunConfig the cell ran under:
//	                    threads, placement, policy, preferred_node,
//	                    allocator, autonuma, thp, seed
//	seed        number  the cell's RNG seed (same as config.seed)
//	wall_cycles number  simulated wall time of the cell, cycles
//	freq_ghz    number  machine clock, to convert cycles to seconds
//	counters    object  the perf-counter profile (see machine.Counters)
//	extra       object  driver-specific scalar outputs (e.g. "lar")
//	snapshots   array   periodic counter samples, when enabled
//	breakdown   object  v2: machine-wide cycle attribution, component
//	                    bucket name -> total cycles, when cell profiling
//	                    was on (see machine.Bucket)
//	profile     object  v2: the full cycle-attribution profile — per-thread
//	                    and per-node bucket breakdowns plus the N×N node
//	                    access matrix (see machine.Profile)
//	host_ns     number  real time the cell took on the host, nanoseconds.
//	                    The ONLY nondeterministic field: normalize to 0
//	                    before diffing runs.
const SchemaVersion = "repro/bench/v2"

// SchemaV1 is the previous record layout: identical to v2 minus the
// breakdown and profile fields. The strict reader accepts both, so files
// written before the profiler keep validating.
const SchemaV1 = "repro/bench/v1"

// CellConfig is machine.RunConfig flattened to strings for the JSONL
// schema, so records stay readable without this package's enum values.
type CellConfig struct {
	Threads       int    `json:"threads"`
	Placement     string `json:"placement"`
	Policy        string `json:"policy"`
	PreferredNode int    `json:"preferred_node"`
	Allocator     string `json:"allocator"`
	AutoNUMA      bool   `json:"autonuma"`
	THP           bool   `json:"thp"`
	Seed          uint64 `json:"seed"`
}

func configOf(cfg machine.RunConfig) CellConfig {
	return CellConfig{
		Threads:       cfg.Threads,
		Placement:     cfg.Placement.String(),
		Policy:        cfg.Policy.String(),
		PreferredNode: int(cfg.PreferredNode),
		Allocator:     cfg.Allocator,
		AutoNUMA:      cfg.AutoNUMA,
		THP:           cfg.THP,
		Seed:          cfg.Seed,
	}
}

// Record is the structured result of one grid cell; see SchemaVersion for
// the serialized layout. All fields except HostNS are deterministic for a
// fixed seed and scale.
type Record struct {
	Schema     string             `json:"schema"`
	Experiment string             `json:"experiment"`
	Cell       string             `json:"cell"`
	Labels     map[string]string  `json:"labels,omitempty"`
	Machine    string             `json:"machine,omitempty"`
	Config     CellConfig         `json:"config"`
	Seed       uint64             `json:"seed"`
	WallCycles float64            `json:"wall_cycles"`
	FreqGHz    float64            `json:"freq_ghz,omitempty"`
	Counters   machine.Counters   `json:"counters"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Snapshots  []machine.Snapshot `json:"snapshots,omitempty"`
	Breakdown  map[string]float64 `json:"breakdown,omitempty"`
	Profile    *machine.Profile   `json:"profile,omitempty"`
	HostNS     int64              `json:"host_ns"`

	// rec is the cell's event recorder when cell tracing was on; exposed
	// through TraceEvents and deliberately kept out of the JSON encoding
	// (traces are exported separately, in Chrome trace-event format).
	rec *trace.Recorder
}

// TraceEvents returns the cell's recorded event stream, nil unless
// SetCellTracing(true) was active when the cell ran.
func (r *Record) TraceEvents() []trace.Event {
	if r.rec == nil {
		return nil
	}
	return r.rec.Events
}

// Result is what every experiment driver returns: the rendered tables the
// paper shows, plus one structured Record per grid cell for the JSONL
// sink. Id is stamped by Descriptor.Run. Spans carries the request-level
// span trees of serving cells (schema repro/spans/v1, each span's Cell
// stamped with its grid cell), populated by the serve family when span
// collection is on.
type Result struct {
	Id      string
	Tables  []*report.Table
	Records []Record
	Spans   []span.Span
}

// cellTracing attaches a trace.Recorder and periodic counter snapshots to
// every machine built by machineFor. Set it up front (like SetRunner);
// not safe to toggle while a driver runs.
var cellTracing bool

// SetCellTracing toggles per-cell event tracing and counter snapshots for
// all subsequent driver runs (the numabench -trace flag). Off by default:
// untraced cells run with a nil sink and pay nothing.
func SetCellTracing(on bool) { cellTracing = on }

// cellProfiling attaches the cycle-attribution profiler to every machine
// built by machineFor, filling each record's breakdown and profile fields.
// Same contract as cellTracing: set up front, don't toggle mid-driver.
var cellProfiling bool

// SetCellProfiling toggles per-cell cycle attribution for all subsequent
// driver runs (the numabench -breakdown / -folded flags). Off by default:
// unprofiled cells pay one nil check per hook.
func SetCellProfiling(on bool) { cellProfiling = on }

// cellSpans marks serving machines for request-span collection, filling
// Result.Spans on the serve-family drivers. Same contract as cellTracing:
// set up front, don't toggle mid-driver.
var cellSpans bool

// SetCellSpans toggles request-span collection for all subsequent
// serve-family driver runs (the numabench -spans flag). Span assembly is
// observation-only: every simulated output is bit-identical on or off.
func SetCellSpans(on bool) { cellSpans = on }

// stampSpans labels a serving outcome's spans with their grid cell and
// appends them to dst.
func stampSpans(dst []span.Span, cell string, spans []span.Span) []span.Span {
	for _, s := range spans {
		s.Cell = cell
		dst = append(dst, s)
	}
	return dst
}

// cellSnapEvery is the snapshot cadence for traced cells and the Fig 5b
// time series, in simulated cycles. Long runs stay bounded because the
// machine thins the series (drops every other sample, doubles cadence)
// once it hits its cap.
const cellSnapEvery = 1e5

// startCell marks the host-time start of a grid cell. Host time is the
// one nondeterministic record field; everything else derives from the
// simulation.
func startCell() time.Time { return time.Now() }

// finishCell builds the structured record for a completed cell: the full
// configuration, counters, trace recorder and snapshot series are read
// off the machine; wall is the cell's simulated wall time.
func finishCell(start time.Time, cell string, labels map[string]string, m *machine.Machine, wall float64) Record {
	cfg := m.Config()
	r := Record{
		Schema:     SchemaVersion,
		Cell:       cell,
		Labels:     labels,
		Machine:    m.Spec.Name,
		Config:     configOf(cfg),
		Seed:       cfg.Seed,
		WallCycles: wall,
		FreqGHz:    m.Spec.FreqGHz,
		Counters:   m.Counters(),
		Snapshots:  m.Snapshots(),
		HostNS:     time.Since(start).Nanoseconds(),
	}
	if rec, ok := m.Trace().(*trace.Recorder); ok {
		r.rec = rec
	}
	if p := m.Profile(); p != nil {
		r.Profile = p
		r.Breakdown = p.TotalsByName()
	}
	return r
}

// WriteJSONL appends one JSON object per record to w, newline-delimited.
// Missing Schema fields are stamped with SchemaVersion. Output order is
// input order; for a fixed seed everything but host_ns is deterministic.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		r := recs[i]
		if r.Schema == "" {
			r.Schema = SchemaVersion
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses newline-delimited records, rejecting unknown fields,
// wrong schemas, records with no experiment or cell id, and anything after
// a line's record — the strict complement of WriteJSONL, so a round-trip
// validates the schema.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if dec.InputOffset() != int64(len(b)) {
			return nil, fmt.Errorf("line %d: trailing data after the record", line)
		}
		if rec.Schema != SchemaVersion && rec.Schema != SchemaV1 {
			return nil, fmt.Errorf("line %d: schema %q, want %q or %q",
				line, rec.Schema, SchemaVersion, SchemaV1)
		}
		if rec.Experiment == "" || rec.Cell == "" {
			return nil, fmt.Errorf("line %d: record missing experiment or cell id", line)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
