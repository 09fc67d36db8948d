package topology

import (
	"math"
	"testing"
)

// FuzzTopologyNew feeds New arbitrary configurations. New must never
// panic, and every topology it accepts must be one the simulator can use:
// symmetric hops with a zero diagonal, positive hops off it, unit local
// latency, finite positive latencies, and a route between every pair of
// nodes that is as long as their hop count.
//
// Links come from pairs of bytes read as signed node numbers, so links to
// negative and out-of-range nodes occur. HopLatency takes its first
// nlat%5 entries from h0..h3 after a leading lead value.
func FuzzTopologyNew(f *testing.F) {
	f.Add(8, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0}, 5, 1.0, 1.2, 1.4, 1.6, 2.0, 10.0)
	f.Add(4, []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}, 2, 1.0, 1.1, 0.0, 0.0, 0.0, 10.0)
	f.Add(1, []byte{}, 1, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(MaxNodes+1, []byte{0, 1}, 2, 1.0, 1.1, 0.0, 0.0, 0.0, 1.0)
	f.Add(2, []byte{0, 1}, 2, 1.0, math.NaN(), 0.0, 0.0, 0.0, 1.0)
	f.Add(2, []byte{0, 1}, 2, 1.0, 1.5, 0.0, 0.0, 0.0, math.NaN())
	f.Add(2, []byte{0, 1}, 2, 1.0, math.Inf(1), 0.0, 0.0, 0.0, math.Inf(1))
	f.Add(3, []byte{0, 0, 1, 2, 0xff, 1}, 3, 1.0, -1.0, 2.0, 0.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, nodes int, linkBytes []byte, nlat int, lead, h0, h1, h2, h3, bw float64) {
		var links [][2]int
		for i := 0; i+1 < len(linkBytes); i += 2 {
			links = append(links, [2]int{int(int8(linkBytes[i])), int(int8(linkBytes[i+1]))})
		}
		lat := []float64{lead, h0, h1, h2, h3}
		if nlat < 0 {
			nlat = -nlat
		}
		cfg := Config{Name: "fuzz", Nodes: nodes, Links: links, HopLatency: lat[:nlat%len(lat)], LinkBandwidthGTs: bw}
		top, err := New(cfg)
		if err != nil {
			return
		}
		if top.Nodes() != nodes || nodes < 1 || nodes > MaxNodes {
			t.Fatalf("accepted %d nodes", nodes)
		}
		if b := top.LinkBandwidthGTs(); !(b > 0) || math.IsInf(b, 0) {
			t.Fatalf("accepted link bandwidth %v", b)
		}
		for a := NodeID(0); int(a) < nodes; a++ {
			for b := NodeID(0); int(b) < nodes; b++ {
				h := top.Hops(a, b)
				if h != top.Hops(b, a) {
					t.Fatalf("Hops(%d,%d) = %d but Hops(%d,%d) = %d", a, b, h, b, a, top.Hops(b, a))
				}
				if (a == b) != (h == 0) || h < 0 {
					t.Fatalf("Hops(%d,%d) = %d", a, b, h)
				}
				l := top.Latency(a, b)
				if a == b && l != 1 {
					t.Fatalf("Latency(%d,%d) = %v, want 1", a, b, l)
				}
				if !(l > 0) || math.IsInf(l, 0) {
					t.Fatalf("Latency(%d,%d) = %v, want finite and positive", a, b, l)
				}
				if r := top.Route(a, b); len(r) != h+1 || r[0] != a || r[h] != b {
					t.Fatalf("Route(%d,%d) = %v for %d hops", a, b, r, h)
				}
			}
		}
	})
}
