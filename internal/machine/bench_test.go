package machine

import (
	"testing"

	"repro/internal/trace"
)

// countSink is a trace sink with negligible cost, so traced benchmarks
// measure the access path's hook overhead rather than event storage.
type countSink struct{ n uint64 }

func (s *countSink) Emit(trace.Event) { s.n++ }

// benchAccessPath measures simulated accesses per host second through one
// warm 8MiB buffer on Machine B. kind selects the charging API; traced and
// profiled toggle the observation hooks the fast path hoists out of the
// inner loop.
func benchAccessPath(b *testing.B, kind string, traced, profiled bool) {
	m := NewB()
	m.Configure(testConfig(1))
	if profiled {
		m.setProfiling(true)
	}
	if traced {
		m.setTrace(&countSink{})
	}
	const bufBytes = 8 << 20
	const lines = bufBytes / 64
	var base uint64
	m.Run(1, func(t *Thread) {
		base = t.Malloc(bufBytes)
		t.WriteRun(base, 64, lines) // pre-fault so iterations measure the warm path
	})
	b.ResetTimer()
	m.Run(1, func(t *Thread) {
		for done := 0; done < b.N; {
			n := lines
			if b.N-done < n {
				n = b.N - done
			}
			switch kind {
			case "scalar":
				for j := 0; j < n; j++ {
					t.Read(base+uint64(j)*64, 8)
				}
			case "batched":
				t.ReadRun(base, 64, n)
			case "strided":
				// Page-strided probe: one line per 4KiB page, wrapping
				// through the buffer.
				left := n
				for left > 0 {
					c := bufBytes / 4096
					if c > left {
						c = left
					}
					t.ReadStrided(base, 8, 4096, c)
					left -= c
				}
			}
			done += n
		}
	})
}

func BenchmarkAccessPath(b *testing.B) {
	for _, kind := range []string{"scalar", "batched", "strided"} {
		for _, mode := range []struct {
			name             string
			traced, profiled bool
		}{
			{"plain", false, false},
			{"traced", true, false},
			{"profiled", false, true},
		} {
			b.Run(kind+"/"+mode.name, func(b *testing.B) {
				benchAccessPath(b, kind, mode.traced, mode.profiled)
			})
		}
	}
}

// BenchmarkAccessPathWriteRun isolates the store path (coherence directory
// updates on top of the load walk).
func BenchmarkAccessPathWriteRun(b *testing.B) {
	m := NewB()
	m.Configure(testConfig(1))
	const bufBytes = 8 << 20
	const lines = bufBytes / 64
	var base uint64
	m.Run(1, func(t *Thread) {
		base = t.Malloc(bufBytes)
		t.WriteRun(base, 64, lines)
	})
	b.ResetTimer()
	m.Run(1, func(t *Thread) {
		for done := 0; done < b.N; {
			n := lines
			if b.N-done < n {
				n = b.N - done
			}
			t.WriteRun(base, 64, n)
			done += n
		}
	})
}
