package span

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the strict reader: it must return
// an error or spans, never panic, and whatever it accepts must survive a
// write/read cycle with stable bytes. The seed corpus (the strict-reader
// golden line, its rejected variants and sampleSpans) runs under plain
// `go test`; run the fuzzer with
//
//	go test ./internal/span -run '^$' -fuzz '^FuzzReadJSONL$' -fuzztime 15s
func FuzzReadJSONL(f *testing.F) {
	good := `{"schema":"repro/spans/v1","id":1,"kind":"request","name":"point","seq":0,"session":0,"thread":0,"start":0,"end":10}`
	f.Add([]byte(good + "\n"))
	f.Add([]byte(strings.Replace(good, `"end":10`, `"end":-1`, 1)))
	f.Add([]byte(strings.Replace(good, `"kind":"request"`, `"kind":"mystery"`, 1)))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleSpans()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteJSONL(&first, spans); err != nil {
			t.Fatalf("accepted spans do not serialize: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reader rejects its own writer's output: %v\n%s", err, first.Bytes())
		}
		if len(again) != len(spans) {
			t.Fatalf("round-trip: %d spans, want %d", len(again), len(spans))
		}
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("bytes not stable under read/write:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
