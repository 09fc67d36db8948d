package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
)

// tinyDims keep the benchmark's own tests fast.
var tinyDims = dims{AggRows: 8_000, AggGroups: 400, JoinR: 1_500, ServeRequests: 240, TPCHSF: 0.001}

func runTiny(t *testing.T, workload string, seed uint64, traced bool) *report {
	t.Helper()
	rep, err := run(workload, seed, tinyDims, 0, traced)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWorkloadsPassChecksAtTinySize(t *testing.T) {
	for _, w := range workloadNames {
		rep := runTiny(t, w, 1, false)
		attempted, failed := rep.attempted()
		if attempted != len(rep.Cells) || failed != 0 {
			t.Errorf("%s: %d of %d cells failed: %v", w, failed, attempted, rep.Notes)
		}
	}
}

func TestChecksCatchWrongResultsAndPanics(t *testing.T) {
	for _, w := range []string{"agg-serial", "join-parallel"} {
		in, err := generate(w, 1, tinyDims)
		if err != nil {
			t.Fatal(err)
		}
		c := cells(w, in)[0]
		kernel := c.Kernel
		c.Kernel = func(m *machine.Machine, in *inputs) outcome {
			o := kernel(m, in)
			o.Checksum++
			return o
		}
		if _, _, err := runCell(c, in, false, nil); err == nil {
			t.Errorf("%s: a wrong checksum passed the check", w)
		}
		c.Kernel = func(*machine.Machine, *inputs) outcome { panic("injected") }
		if _, _, err := runCell(c, in, false, nil); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Errorf("%s: panic not reported, err = %v", w, err)
		}
	}
}

func TestTracedRunAttributesSamples(t *testing.T) {
	rep := runTiny(t, "join-parallel", 1, true)
	if _, failed := rep.attempted(); failed != 0 {
		t.Fatalf("traced run failed: %v", rep.Notes)
	}
	got := map[string]float64{}
	for _, m := range rep.perLayer() {
		got[m.Name] = m.Value
	}
	if got["sim.cycles.compute"] <= 0 {
		t.Errorf("traced run has no profile buckets: %v", got)
	}
	if got["attributed_frac"] < 0 || got["attributed_frac"] > 1 {
		t.Errorf("attributed_frac = %v", got["attributed_frac"])
	}
}

func TestSeedFixesDigestAndCounts(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := runTiny(t, w, 1, false), runTiny(t, w, 1, false), runTiny(t, w, 2, false)
		if !reflect.DeepEqual(a.Digests, b.Digests) {
			t.Errorf("%s: same seed, different digests", w)
		}
		if !reflect.DeepEqual(a.counts(), b.counts()) {
			t.Errorf("%s: same seed, different counts:\n%v\n%v", w, a.counts(), b.counts())
		}
		if combineDigests(a.Digests) == combineDigests(c.Digests) {
			t.Errorf("%s: seeds 1 and 2 give the same digest", w)
		}
		if a.counts()["sim.wall_cycles"] == c.counts()["sim.wall_cycles"] {
			t.Errorf("%s: seeds 1 and 2 give the same simulated cycles", w)
		}
	}
}

// TestEveryInternalFileHasOneLayer keeps the layer map complete: a new
// file under internal/ must be assigned a layer. Test files never run in
// the benchmark, so they are not mapped.
func TestEveryInternalFileHasOneLayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", path)
		if err != nil {
			return err
		}
		n++
		rel = filepath.ToSlash(rel)
		if _, matches := matchLayer(rel); matches != 1 {
			t.Errorf("%s matches %d layer rules, want 1", rel, matches)
		}
		if l := layerOf("repro@v0.0.0/" + rel); l == "other" {
			t.Errorf("%s maps to other", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no files under ../internal")
	}
}

func TestLayerOf(t *testing.T) {
	for file, want := range map[string]string{
		"repro@v0.0.0/internal/cache/cache.go":   "cache",
		"repro/internal/machine/lane.go":         "engine",
		"repro@v0.0.0/internal/machine/trace.go": "observe",
		"repro/hostbench/main.go":                "other",
		"runtime/mgc.go":                         "goruntime",
		"internal/runtime/maps/map.go":           "goruntime",
		"sort/zsortfunc.go":                      "goruntime",
		"example.com/x/y.go":                     "other",
		"":                                       "other",
	} {
		if got := layerOf(file); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", file, got, want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the untraced run prints
// exactly the end-to-end metrics of BENCHMARK.json and the traced run
// exactly its per-layer metrics, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	rep := runTiny(t, "agg-serial", 1, true)
	for _, c := range []struct {
		kind    string
		printed []metric
		want    []struct{ Name, Unit string }
	}{{"end_to_end", rep.endToEnd(), spec.EndToEnd}, {"per_layer", rep.perLayer(), spec.PerLayer}} {
		got := map[string]string{}
		for _, m := range c.printed {
			got[m.Name] = m.Unit
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v\nBENCHMARK.json %v", c.kind, got, want)
		}
	}
}

func TestRecordedDigestsCoverBothSeeds(t *testing.T) {
	rec, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	if rec.DefaultSeed == rec.HeldOutSeed {
		t.Fatalf("default and held-out seed are both %d", rec.DefaultSeed)
	}
	for _, w := range workloadNames {
		in, err := generate(w, 1, tinyDims)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{rec.DefaultSeed, rec.HeldOutSeed} {
			got := rec.Workloads[w][strconv.FormatUint(seed, 10)]
			if len(got) != len(cells(w, in)) {
				t.Errorf("%s seed %d: %d recorded cell digests, workload has %d cells", w, seed, len(got), len(cells(w, in)))
			}
		}
	}
}
