package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the strict record reader: it must
// return an error or records, never panic, and whatever it accepts must
// survive a write/read cycle with stable bytes. The seed corpus (the v1
// golden line of TestReadJSONLAcceptsV1, a v2 line with every optional
// field, and rejected variants) runs under plain `go test`; run the fuzzer
// with
//
//	go test ./internal/experiments -run '^$' -fuzz '^FuzzReadJSONL$' -fuzztime 15s
func FuzzReadJSONL(f *testing.F) {
	counters := `"counters":{"thread_migrations":0,"cache_accesses":0,` +
		`"cache_misses":0,"tlb_misses":0,"local_accesses":0,"remote_accesses":0,` +
		`"minor_faults":0,"page_migrations":0,"huge_promotions":0,"huge_splits":0}`
	v1 := `{"schema":"repro/bench/v1","experiment":"fig2","cell":"c1",` +
		`"config":{"threads":1,"placement":"Sparse","policy":"FirstTouch",` +
		`"preferred_node":0,"allocator":"ptmalloc","autonuma":false,"thp":false,"seed":1},` +
		`"seed":1,"wall_cycles":100,` + counters + `,"host_ns":5}`
	v2 := strings.Replace(strings.Replace(v1, "bench/v1", "bench/v2", 1), `,"host_ns":5`,
		`,"labels":{"policy":"Interleave"},"machine":"Machine A","freq_ghz":2.2,"extra":{"lar":0.5},`+
			`"snapshots":[{"cycle":100000,`+counters+`}],"breakdown":{"compute":60,"l1_hit":40},`+
			`"profile":{"bucket_names":["compute","l1_hit"],"threads":[{"thread":0,"wall_cycles":100,"buckets":[60,40]}],`+
			`"nodes":[{"node":0,"buckets":[60,40]}],"matrix":[[1,0],[0,0]]},"host_ns":5`, 1)
	if recs, err := ReadJSONL(strings.NewReader(v2 + "\n" + v1)); err != nil || len(recs) != 2 {
		f.Fatalf("golden lines: %d records, %v", len(recs), err)
	}
	f.Add([]byte(v1 + "\n"))
	f.Add([]byte(v2 + "\n\n" + v1 + "\n"))
	f.Add([]byte(strings.Replace(v1, "repro/bench/v1", "repro/bench/v0", 1)))
	f.Add([]byte(strings.Replace(v2, `"cell":"c1"`, `"cell":""`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteJSONL(&first, recs); err != nil {
			t.Fatalf("accepted records do not serialize: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reader rejects its own writer's output: %v\n%s", err, first.Bytes())
		}
		if len(again) != len(recs) {
			t.Fatalf("round-trip: %d records, want %d", len(again), len(recs))
		}
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("bytes not stable under read/write:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
