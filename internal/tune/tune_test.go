package tune

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vmm"
)

// tinySize mirrors experiments.Tiny's workload dimensions so unit tests
// finish in milliseconds and share memoized datasets with the driver
// tests.
var tinySize = Size{AggRecords: 8_000, AggCardinality: 400, JoinR: 1_500}

func TestDefaultSpaceEnumeration(t *testing.T) {
	s := DefaultSpace()
	if got, want := s.Size(), 3*4*5*2*2; got != want {
		t.Fatalf("space size %d, want %d", got, want)
	}
	pts := s.Points()
	if len(pts) != s.Size() {
		t.Fatalf("Points() returned %d, Size() says %d", len(pts), s.Size())
	}
	seen := map[string]bool{}
	for _, p := range pts {
		k := p.Key()
		if seen[k] {
			t.Fatalf("duplicate point key %s", k)
		}
		seen[k] = true
		if !s.Contains(p) {
			t.Fatalf("space does not contain its own point %s", k)
		}
	}
	if pts[0] != DefaultPoint() {
		t.Errorf("first enumerated point %s is not the OS default %s",
			pts[0].Key(), DefaultPoint().Key())
	}
}

func TestFreeze(t *testing.T) {
	s, err := DefaultSpace().Freeze("placement", "Sparse")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Size(), 4*5*2*2; got != want {
		t.Fatalf("after freezing placement: size %d, want %d", got, want)
	}
	s, err = ParseFreezes(s, "thp=off, allocator=tbbmalloc")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Size(), 4*2; got != want {
		t.Fatalf("after freezing thp+allocator: size %d, want %d", got, want)
	}
	for _, p := range s.Points() {
		if p.Placement != machine.PlaceSparse || p.THP || p.Allocator != "tbbmalloc" {
			t.Fatalf("frozen space leaked point %s", p.Key())
		}
	}
	if _, err := DefaultSpace().Freeze("color", "red"); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := DefaultSpace().Freeze("allocator", "nftmalloc"); err == nil {
		t.Error("unknown allocator value accepted")
	}
	if _, err := DefaultSpace().Freeze("autonuma", "maybe"); err == nil {
		t.Error("non-boolean autonuma value accepted")
	}
	if _, err := ParseFreezes(DefaultSpace(), "placement"); err == nil {
		t.Error("malformed freeze accepted")
	}
	// Freezing to a value an earlier freeze removed must fail.
	s2, _ := DefaultSpace().Freeze("policy", "Interleave")
	if _, err := s2.Freeze("policy", "First Touch"); err == nil {
		t.Error("freeze to an excluded value accepted")
	}
}

func TestPointKeyAndParseRoundTrip(t *testing.T) {
	for _, p := range DefaultSpace().Points() {
		j := pointJSON(p)
		back, err := parsePoint(j.Placement, j.Policy, j.Allocator, j.AutoNUMA, j.THP)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		if back != p {
			t.Fatalf("round-trip %s -> %s", p.Key(), back.Key())
		}
	}
	if _, err := parsePoint("Sideways", "Interleave", "ptmalloc", "on", "on"); err == nil {
		t.Error("bad placement accepted")
	}
}

func TestFromRecommendation(t *testing.T) {
	tr, err := core.WorkloadTraits("W1")
	if err != nil {
		t.Fatal(err)
	}
	p := FromRecommendation(core.Advise(tr))
	if !DefaultSpace().Contains(p) {
		t.Fatalf("advised point %s outside the default space", p.Key())
	}
	if p.Placement != machine.PlaceSparse || p.Policy != vmm.Interleave ||
		p.Allocator != "tbbmalloc" || p.AutoNUMA || p.THP {
		t.Fatalf("unexpected advised point for W1 traits: %s", p.Key())
	}
}

func TestScaled(t *testing.T) {
	z := Size{AggRecords: 1000, AggCardinality: 100, JoinR: 64}
	if z.Scaled(1) != z || z.Scaled(2) != z {
		t.Error("frac >= 1 must be the identity")
	}
	q := z.Scaled(0.25)
	if q != (Size{250, 25, 16}) {
		t.Errorf("Scaled(0.25) = %+v", q)
	}
	tinyFrac := z.Scaled(1e-6)
	if tinyFrac.AggRecords < 1 || tinyFrac.AggCardinality < 1 || tinyFrac.JoinR < 1 {
		t.Errorf("Scaled floor violated: %+v", tinyFrac)
	}
}

func TestWorkloadAndMachineLookup(t *testing.T) {
	if _, err := WorkloadByID("W7"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := MachineFor("Z"); err == nil {
		t.Error("unknown machine accepted")
	}
	if got := WorkloadIDs(); len(got) != 3 || got[0] != "W1" || got[1] != "W3" || got[2] != "WS" {
		t.Errorf("WorkloadIDs() = %v", got)
	}
	if ws, err := WorkloadByID("WS"); err != nil || ws.Objective != "p99_latency" {
		t.Errorf("WS = %+v, %v; want p99_latency objective", ws, err)
	}
	for _, id := range WorkloadIDs() {
		if _, err := core.WorkloadTraits(id); err != nil {
			t.Errorf("workload %s has no canonical traits: %v", id, err)
		}
	}
}

func TestSpecNormalize(t *testing.T) {
	sp, err := Spec{Strategy: "sha", Workload: "W1", Machine: "A", Space: DefaultSpace(), Size: tinySize}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Threads <= 0 || sp.Seed == 0 || sp.Eta != 4 || sp.Rungs != 3 || sp.Wave != 16 {
		t.Errorf("defaults not filled: %+v", sp)
	}
	if sp.ID() != "sha/W1/A" {
		t.Errorf("ID() = %q", sp.ID())
	}
	bad := []Spec{
		{Strategy: "annealing", Workload: "W1", Machine: "A", Space: DefaultSpace(), Size: tinySize},
		{Strategy: "grid", Workload: "W9", Machine: "A", Space: DefaultSpace(), Size: tinySize},
		{Strategy: "grid", Workload: "W1", Machine: "Q", Space: DefaultSpace(), Size: tinySize},
		{Strategy: "grid", Workload: "W1", Machine: "A", Space: Space{}, Size: tinySize},
		{Strategy: "grid", Workload: "W1", Machine: "A", Space: DefaultSpace()},
	}
	for i, b := range bad {
		if _, err := b.Normalize(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// descentResult memoizes one cheap campaign shared by the record tests.
func descentResult(t *testing.T) *Result {
	t.Helper()
	res, err := Run(Spec{
		Strategy: StrategyDescent, Space: DefaultSpace(),
		Workload: "W1", Machine: "A", Size: tinySize,
	}, core.Serial, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRecordJSONLRoundTrip(t *testing.T) {
	res := descentResult(t)
	if len(res.Records) == 0 {
		t.Fatal("campaign produced no records")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Records) {
		t.Fatalf("round-trip: %d records, want %d", len(got), len(res.Records))
	}
	for i := range got {
		if got[i].Key != res.Records[i].Key || got[i].WallCycles != res.Records[i].WallCycles ||
			got[i].Trial != res.Records[i].Trial || got[i].Campaign != res.Records[i].Campaign {
			t.Fatalf("record %d drifted through the round-trip:\n%+v\n%+v", i, got[i], res.Records[i])
		}
	}
	// Re-serializing the parsed records must reproduce the bytes.
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSONL bytes not stable under a parse/serialize cycle")
	}
}

func TestReadJSONLStrict(t *testing.T) {
	res := descentResult(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res.Records[:1]); err != nil {
		t.Fatal(err)
	}
	line := buf.String()

	if _, err := ReadJSONL(strings.NewReader(strings.Replace(line, "repro/tune/v1", "repro/tune/v0", 1))); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(strings.Replace(line, `"schema"`, `"mystery_field":1,"schema"`, 1))); err == nil {
		t.Error("unknown field accepted")
	}
	// Descent's first trial is the OS default, so its placement is "None".
	if _, err := ReadJSONL(strings.NewReader(strings.Replace(line, `"placement":"None"`, `"placement":"Diagonal"`, 1))); err == nil {
		t.Error("unparseable point accepted")
	}
	rec := strings.TrimSuffix(line, "\n")
	for _, trailing := range []string{rec, " x", "]"} {
		if _, err := ReadJSONL(strings.NewReader(rec + trailing + "\n")); err == nil {
			t.Errorf("line with trailing %q accepted", trailing)
		}
	}
}

func TestLoadCheckpoint(t *testing.T) {
	res := descentResult(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.jsonl")

	if recs, err := LoadCheckpoint(filepath.Join(dir, "missing.jsonl")); err != nil || recs != nil {
		t.Fatalf("missing checkpoint: recs=%v err=%v", recs, err)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A checkpoint killed mid-write: complete lines plus a torn tail.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	torn := append(append([]byte{}, full[:cut]...), full[cut:cut+20]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != len(res.Records)-1 {
		t.Fatalf("torn checkpoint: %d records, want %d", len(recs), len(res.Records)-1)
	}

	// Corruption anywhere else must be reported.
	bad := bytes.Replace(full, []byte("repro/tune/v1"), []byte("repro/tune/v9"), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupt interior line tolerated")
	}
}
