package tune

import (
	"bytes"
	"strings"
	"testing"
)

// goldenRecord is one descent-campaign trial line in the repro/tune/v1
// layout WriteJSONL produces.
const goldenRecord = `{"schema":"repro/tune/v1","campaign":"descent/W1/A","strategy":"descent","trial":0,"rung":0,"frac":1,` +
	`"workload":"W1","machine":"A","key":"None/First Touch/ptmalloc/numa=off/thp=off",` +
	`"point":{"placement":"None","policy":"First Touch","allocator":"ptmalloc","autonuma":"off","thp":"off"},` +
	`"threads":16,"seed":1,"size":{"agg_records":4096,"agg_cardinality":64,"join_r":0},"wall_cycles":123456.5,"lar":0.25,` +
	`"counters":{"thread_migrations":0,"cache_accesses":10,"cache_misses":4,"tlb_misses":2,"local_accesses":1,` +
	`"remote_accesses":3,"minor_faults":5,"page_migrations":0,"huge_promotions":0,"huge_splits":0},` +
	`"breakdown":{"compute":1000,"dram_remote_1hop":250.5}}`

// FuzzReadJSONL feeds arbitrary bytes to the strict campaign reader: it
// must return an error or records, never panic, and whatever it accepts
// must survive a write/read cycle with stable bytes. The seed corpus (the
// golden line and its rejected variants) runs under plain `go test`; run
// the fuzzer with
//
//	go test ./internal/tune -run '^$' -fuzz '^FuzzReadJSONL$' -fuzztime 15s
func FuzzReadJSONL(f *testing.F) {
	if recs, err := ReadJSONL(strings.NewReader(goldenRecord)); err != nil || len(recs) != 1 {
		f.Fatalf("golden record: %d records, %v", len(recs), err)
	}
	f.Add([]byte(goldenRecord + "\n" + goldenRecord + "\n"))
	f.Add([]byte(strings.Replace(goldenRecord, "repro/tune/v1", "repro/tune/v0", 1)))
	f.Add([]byte(strings.Replace(goldenRecord, `"placement":"None"`, `"placement":"Diagonal"`, 1)))
	f.Add([]byte(strings.Replace(goldenRecord, `"autonuma":"off"`, `"autonuma":"maybe"`, 1)))
	f.Add([]byte(goldenRecord + goldenRecord + "\n"))
	f.Add([]byte(goldenRecord + " x\n"))
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
