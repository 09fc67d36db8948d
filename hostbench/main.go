// Command hostbench measures the simulator's host speed: how many host
// seconds the simulator spends on fixed grids of simulated cells, where
// that time goes by simulator layer, and the exact simulated work counts
// behind it. See README.md for the metrics and workloads.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash hostbench/run.sh --workload agg-serial --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/orchestrator"
)

// processStart approximates process start: package initialisation runs
// before main.
var processStart = time.Now()

// setupReps is how many times a run repeats input generation; setup_s
// reports the median.
const setupReps = 5

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 25, "host seconds of measured cells")
	traceFlag := flag.Int("trace", 0, "1 = traced run: CPU profile per layer, simulated profile buckets")
	digestsOnly := flag.Bool("digests", false, "run each cell once and print its digests as JSON")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *digestsOnly {
		if err := printDigests(os.Stdout, *workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(*workload, *seed, calDims, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

// sample is one timed execution of one cell.
type sample struct {
	MachineNew, Kernel, Verify time.Duration
	CPU                        time.Duration            // process CPU time over MachineNew+Kernel
	Layers                     map[string]time.Duration // traced samples only
}

// host is the time a cell pays for: machine construction plus the kernel.
func (s sample) host() time.Duration { return s.MachineNew + s.Kernel }

// cellStats accumulates one cell's samples across visits.
type cellStats struct {
	Untraced, Traced []sample
	Out              outcome // the first visit's outcome
	Digest           string
	Failed           int
	Attempted        int
}

// runCell executes one cell on a fresh machine. A panic in the simulator
// is recovered and returned as an error, so it counts as a failed cell.
// Each cell starts from a collected heap, untimed, so that its host time
// and the peak RSS reflect its own garbage rather than its predecessors'.
func runCell(c cell, in *inputs, profiled bool, cpu *bytes.Buffer) (out outcome, s sample, err error) {
	defer func() {
		if p := recover(); p != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
			}
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return out, s, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	c0 := cpuTime()
	t0 := time.Now()
	m := newMachine(c.Machine)
	m.Configure(c.Config)
	o := c.Observe
	o.Profile = o.Profile || profiled
	m.Observe(o)
	var orch *orchestrator.Orchestrator
	if c.Orch {
		orch = orchestrator.New(orchestrator.DefaultConfig())
		orch.Attach(m)
	}
	t1 := time.Now()
	out = c.Kernel(m, in)
	if orch != nil {
		out.Orch = orch.Stats()
		orch.Detach()
	}
	t2 := time.Now()
	s.CPU = cpuTime() - c0
	if cpu != nil {
		pprof.StopCPUProfile()
	}
	if profiled {
		if p := m.Profile(); p != nil {
			out.Buckets = p.Totals()
		}
	}
	s.MachineNew, s.Kernel = t1.Sub(t0), t2.Sub(t1)
	err = c.Check(out, in)
	s.Verify = time.Since(t2)
	return out, s, err
}

// report is a finished run.
type report struct {
	Workload string
	Seed     uint64
	Cells    []cell
	Stats    []*cellStats
	SetupS   float64   // setup_s: start-up, median generation, calibration
	SetupGen []float64 // every input-generation repetition
	Buckets  []float64 // summed profile buckets (traced runs)
	Digests  map[string]string
	Notes    []string
}

// run sets up the workload, then visits its cells round-robin until the
// measured host time reaches budget (every cell at least once). A traced
// run first executes every cell once with the simulated cycle profile on
// (untimed), then times each visit twice: untraced, then under a CPU
// profile.
func run(workload string, seed uint64, d dims, budget time.Duration, traced bool) (*report, error) {
	rep := &report{Workload: workload, Seed: seed, Digests: map[string]string{}}
	var in *inputs
	initS := time.Since(processStart).Seconds()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each repetition starts from the same heap
		t := time.Now()
		var err error
		if in, err = generate(workload, seed, d); err != nil {
			return nil, err
		}
		rep.SetupGen = append(rep.SetupGen, time.Since(t).Seconds())
	}
	t := time.Now()
	in.calibrate()
	// Set-up as one run would pay it: process start-up, one input
	// generation (the median repetition) and the serving calibration.
	rep.SetupS = initS + median(rep.SetupGen) + time.Since(t).Seconds()
	rep.Cells = cells(workload, in)
	for range rep.Cells {
		rep.Stats = append(rep.Stats, &cellStats{})
	}
	// record counts one visit and reports whether it passed every check.
	record := func(i int, out outcome, err error) bool {
		st := rep.Stats[i]
		st.Attempted++
		if err == nil {
			d := out.digest()
			if st.Digest == "" {
				st.Digest, st.Out = d, out
			} else if d != st.Digest {
				err = fmt.Errorf("nondeterministic: digest %s, first visit %s", d, st.Digest)
			}
		}
		if err != nil {
			st.Failed++
			rep.Notes = append(rep.Notes, fmt.Sprintf("cell %s failed: %v", rep.Cells[i].Name, err))
		}
		return err == nil
	}
	if traced {
		rep.Buckets = make([]float64, machine.NumBuckets)
		for i, c := range rep.Cells {
			out, _, err := runCell(c, in, true, nil)
			if record(i, out, err) {
				for b, v := range out.Buckets {
					rep.Buckets[b] += v
				}
			}
		}
	}
	var spent time.Duration
	for visit := 0; visit < len(rep.Cells) || spent < budget; visit++ {
		i := visit % len(rep.Cells)
		st := rep.Stats[i]
		out, s, err := runCell(rep.Cells[i], in, false, nil)
		spent += s.host()
		if record(i, out, err) {
			st.Untraced = append(st.Untraced, s)
		}
		if traced {
			var buf bytes.Buffer
			out, s, err := runCell(rep.Cells[i], in, false, &buf)
			spent += s.host()
			if err == nil {
				s.Layers, err = layerTimes(buf.Bytes())
			}
			if record(i, out, err) {
				st.Traced = append(st.Traced, s)
			}
		}
	}
	for i, c := range rep.Cells {
		if rep.Stats[i].Digest != "" {
			rep.Digests[c.Name] = rep.Stats[i].Digest
		}
	}
	return rep, nil
}

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEnd computes the untraced end-to-end metrics.
func (r *report) endToEnd() []metric {
	wall, _, _, _ := r.cellSums(func(s *cellStats) []sample { return s.Untraced })
	var perCell []float64
	n := 0
	for _, st := range r.Stats {
		if len(st.Untraced) > 0 {
			perCell = append(perCell, median(hostSeconds(st.Untraced))*1e3)
			n += len(st.Untraced)
		}
	}
	counts := r.counts()
	return []metric{
		{"wall_s", wall, "s"},
		{"cell_p50_ms", median(perCell), "ms"},
		{"sim_cycles_per_s", counts["sim.wall_cycles"] / wall, "1/s"},
		{"setup_s", r.SetupS, "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
}

// cellSums sums, over cells, the median of each cell's samples: host time,
// machine construction, kernel and verify seconds.
func (r *report) cellSums(pick func(*cellStats) []sample) (host, machineNew, kernel, verify float64) {
	for _, st := range r.Stats {
		ss := pick(st)
		if len(ss) == 0 {
			continue
		}
		host += median(hostSeconds(ss))
		machineNew += median(mapSamples(ss, func(s sample) float64 { return s.MachineNew.Seconds() }))
		kernel += median(mapSamples(ss, func(s sample) float64 { return s.Kernel.Seconds() }))
		verify += median(mapSamples(ss, func(s sample) float64 { return s.Verify.Seconds() }))
	}
	return host, machineNew, kernel, verify
}

// counts sums the exact simulated work counts over the workload's cells,
// one execution each.
func (r *report) counts() map[string]float64 {
	c := map[string]float64{}
	var local, remote float64
	for _, st := range r.Stats {
		if st.Digest == "" {
			continue
		}
		o := st.Out
		k := o.Result.Counters
		c["sim.wall_cycles"] += o.Result.WallCycles
		c["sim.llc_accesses"] += float64(k.CacheAccesses)
		c["sim.llc_misses"] += float64(k.CacheMisses)
		c["sim.tlb_misses"] += float64(k.TLBMisses)
		c["sim.remote_accesses"] += float64(k.RemoteAccesses)
		c["sim.minor_faults"] += float64(k.MinorFaults)
		c["sim.page_migrations"] += float64(k.PageMigrations)
		c["sim.huge_promotions"] += float64(k.HugePromotions)
		c["sim.huge_splits"] += float64(k.HugeSplits)
		c["sim.thread_migrations"] += float64(k.ThreadMigrations)
		c["alloc.mallocs"] += float64(o.Result.Alloc.Mallocs)
		c["alloc.slow_paths"] += float64(o.Result.Alloc.SlowPaths)
		if o.Serve != nil {
			c["serve.requests"] += float64(o.Serve.Metrics.Requests)
			c["spans.emitted"] += float64(len(o.Serve.Spans))
		}
		c["orch.ticks"] += float64(o.Orch.Ticks)
		c["orch.page_moves"] += float64(o.Orch.PageMoves)
		local += float64(k.LocalAccesses)
		remote += float64(k.RemoteAccesses)
	}
	if local+remote > 0 {
		c["sim.lar"] = local / (local + remote)
	}
	return c
}

// countNames lists the exact work counts in print order.
var countNames = []string{
	"sim.wall_cycles", "sim.llc_accesses", "sim.llc_misses", "sim.tlb_misses", "sim.remote_accesses", "sim.lar",
	"sim.minor_faults", "sim.page_migrations", "sim.huge_promotions", "sim.huge_splits", "sim.thread_migrations",
	"alloc.mallocs", "alloc.slow_paths",
	"serve.requests", "spans.emitted", "orch.ticks", "orch.page_moves",
}

// perLayer computes the traced run's metrics.
func (r *report) perLayer() []metric {
	wall, machineNew, kernel, verify := r.cellSums(func(s *cellStats) []sample { return s.Untraced })
	tracedWall, _, _, _ := r.cellSums(func(s *cellStats) []sample { return s.Traced })
	counts := r.counts()

	// Per layer: each cell's mean self time per traced visit, summed over
	// cells, so the figures describe one pass over the grid like wall_s.
	layers := map[string]float64{}
	var visits int
	var all, named time.Duration
	for _, st := range r.Stats {
		for _, s := range st.Traced {
			for l, d := range s.Layers {
				layers[l] += d.Seconds() / float64(len(st.Traced))
				all += d
				if l != "other" {
					named += d
				}
			}
		}
		visits += len(st.Traced)
	}
	var out []metric
	for _, l := range layerNames {
		out = append(out, metric{l + ".self_s", layers[l], "s"})
	}
	attributed := 0.0
	if all > 0 {
		attributed = named.Seconds() / all.Seconds()
	}
	llc := counts["sim.llc_accesses"]
	nsPer := func(s float64) float64 {
		if llc == 0 {
			return 0
		}
		return s * 1e9 / llc
	}
	out = append(out,
		metric{"attributed_frac", attributed, "frac"},
		metric{"trace.overhead_s", tracedWall - wall, "s"},
		metric{"trace.cells", float64(visits), "count"},
		metric{"cache.ns_per_llc_access", nsPer(layers["cache"]), "ns"},
		metric{"host_ns_per_llc_access", nsPer(wall), "ns"},
		metric{"setup.datagen_s", median(r.SetupGen), "s"},
		metric{"cell.machine_new_s", machineNew, "s"},
		metric{"cell.kernel_s", kernel, "s"},
		metric{"cell.verify_s", verify, "s"},
		metric{"failed_frac", r.failedFrac(), "frac"},
	)
	for _, n := range countNames {
		unit := "count"
		if n == "sim.wall_cycles" {
			unit = "cycles"
		} else if n == "sim.lar" {
			unit = "frac"
		}
		out = append(out, metric{n, counts[n], unit})
	}
	for b := machine.Bucket(0); b < machine.NumBuckets; b++ {
		v := 0.0
		if r.Buckets != nil {
			v = r.Buckets[b]
		}
		out = append(out, metric{"sim.cycles." + b.String(), v, "cycles"})
	}
	return out
}

func (r *report) attempted() (attempted, failed int) {
	for _, st := range r.Stats {
		attempted += st.Attempted
		failed += st.Failed
	}
	return attempted, failed
}

func (r *report) failedFrac() float64 {
	a, f := r.attempted()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// write prints the human-readable lines, then the result JSON as the last
// line.
func (r *report) write(w io.Writer, traced bool) error {
	attempted, failed := r.attempted()
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	for i, c := range r.Cells {
		st := r.Stats[i]
		fmt.Fprintf(w, "cell %-28s n=%-3d host_ms %s cpu_ms %s digest=%s\n", c.Name, len(st.Untraced),
			summary(hostSeconds(st.Untraced)), summary(mapSamples(st.Untraced, func(s sample) float64 { return s.CPU.Seconds() })), st.Digest)
	}
	digest := combineDigests(r.Digests)
	fmt.Fprintf(w, "digest %s seed %d %s\n", r.Workload, r.Seed, digest)
	for _, line := range compareDigests(r.Workload, r.Seed, r.Digests) {
		fmt.Fprintln(w, line)
	}
	var ms []metric
	if traced {
		ms = r.perLayer()
	} else {
		ms = r.endToEnd()
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d cell visits)\n", r.failedFrac(), failed, attempted)
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		extra := ""
		if m.Name == "cell_p50_ms" {
			n := 0
			for _, st := range r.Stats {
				n += len(st.Untraced)
			}
			extra = fmt.Sprintf(" (n=%d samples over %d cells)", n, len(r.Cells))
		}
		fmt.Fprintf(w, "metric %s %s %s%s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, extra)
		res.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func hostSeconds(ss []sample) []float64 {
	return mapSamples(ss, func(s sample) float64 { return s.host().Seconds() })
}

func mapSamples(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// summary formats seconds as median, minimum and maximum milliseconds.
func summary(xs []float64) string {
	if len(xs) == 0 {
		return "p50=- min=- max=-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("p50=%.1f min=%.1f max=%.1f", median(s)*1e3, s[0]*1e3, s[len(s)-1]*1e3)
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
