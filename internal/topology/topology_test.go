package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachineAShape(t *testing.T) {
	a := MachineA()
	if a.Nodes() != 8 {
		t.Fatalf("Machine A nodes = %d, want 8", a.Nodes())
	}
	if a.Diameter() != 3 {
		t.Fatalf("Machine A diameter = %d, want 3", a.Diameter())
	}
	// Three links per node, like the Opteron's HyperTransport fabric.
	for i := 0; i < 8; i++ {
		deg := 0
		for j := 0; j < 8; j++ {
			if a.Linked(NodeID(i), NodeID(j)) {
				deg++
			}
		}
		if deg != 3 {
			t.Errorf("node %d degree = %d, want 3", i, deg)
		}
	}
	// Three distinct remote latencies.
	seen := map[float64]bool{}
	for j := 1; j < 8; j++ {
		seen[a.Latency(0, NodeID(j))] = true
	}
	for _, want := range []float64{1.2, 1.4, 1.6} {
		if !seen[want] {
			t.Errorf("Machine A missing remote latency %v (have %v)", want, seen)
		}
	}
}

func TestFullyConnectedMachines(t *testing.T) {
	for _, tc := range []struct {
		top    *Topology
		remote float64
	}{
		{MachineB(), 1.1},
		{MachineC(), 2.1},
	} {
		if tc.top.Nodes() != 4 {
			t.Fatalf("%s nodes = %d, want 4", tc.top.Name(), tc.top.Nodes())
		}
		if tc.top.Diameter() != 1 {
			t.Errorf("%s diameter = %d, want 1", tc.top.Name(), tc.top.Diameter())
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 1.0
				if i != j {
					want = tc.remote
				}
				if got := tc.top.Latency(NodeID(i), NodeID(j)); got != want {
					t.Errorf("%s latency(%d,%d) = %v, want %v", tc.top.Name(), i, j, got, want)
				}
			}
		}
	}
}

func TestLatencySymmetry(t *testing.T) {
	for _, top := range []*Topology{MachineA(), MachineB(), MachineC()} {
		n := top.Nodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if top.Latency(NodeID(i), NodeID(j)) != top.Latency(NodeID(j), NodeID(i)) {
					t.Errorf("%s: latency not symmetric for (%d,%d)", top.Name(), i, j)
				}
				if top.Hops(NodeID(i), NodeID(j)) != top.Hops(NodeID(j), NodeID(i)) {
					t.Errorf("%s: hops not symmetric for (%d,%d)", top.Name(), i, j)
				}
			}
		}
	}
}

func TestLocalIsFastest(t *testing.T) {
	for _, top := range []*Topology{MachineA(), MachineB(), MachineC()} {
		n := top.Nodes()
		for i := 0; i < n; i++ {
			if top.Latency(NodeID(i), NodeID(i)) != 1.0 {
				t.Errorf("%s: local latency on node %d != 1.0", top.Name(), i)
			}
			for j := 0; j < n; j++ {
				if i != j && top.Latency(NodeID(i), NodeID(j)) <= 1.0 {
					t.Errorf("%s: remote latency (%d,%d) not above local", top.Name(), i, j)
				}
			}
		}
	}
}

func TestRouteProperties(t *testing.T) {
	top := MachineA()
	f := func(aRaw, bRaw uint8) bool {
		a := NodeID(aRaw % 8)
		b := NodeID(bRaw % 8)
		path := top.Route(a, b)
		if path[0] != a || path[len(path)-1] != b {
			return false
		}
		if len(path)-1 != top.Hops(a, b) {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			if !top.Linked(path[i], path[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteDeterministic(t *testing.T) {
	top := MachineA()
	p1 := top.Route(0, 7)
	p2 := top.Route(0, 7)
	if len(p1) != len(p2) {
		t.Fatal("route lengths differ between calls")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("route is not deterministic")
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{Name: "x", Nodes: 0, HopLatency: []float64{1}, LinkBandwidthGTs: 1}},
		{"bad local latency", Config{Name: "x", Nodes: 1, HopLatency: []float64{2}, LinkBandwidthGTs: 1}},
		{"no bandwidth", Config{Name: "x", Nodes: 1, HopLatency: []float64{1}}},
		{"self link", Config{Name: "x", Nodes: 2, Links: [][2]int{{0, 0}}, HopLatency: []float64{1, 1.5}, LinkBandwidthGTs: 1}},
		{"out of range link", Config{Name: "x", Nodes: 2, Links: [][2]int{{0, 5}}, HopLatency: []float64{1, 1.5}, LinkBandwidthGTs: 1}},
		{"disconnected", Config{Name: "x", Nodes: 3, Links: [][2]int{{0, 1}}, HopLatency: []float64{1, 1.5}, LinkBandwidthGTs: 1}},
		{"latency table too short", Config{Name: "x", Nodes: 3, Links: [][2]int{{0, 1}, {1, 2}}, HopLatency: []float64{1, 1.5}, LinkBandwidthGTs: 1}},
		{"too many nodes", Config{Name: "x", Nodes: MaxNodes + 1, Links: chain(MaxNodes + 1), HopLatency: ramp(MaxNodes + 1), LinkBandwidthGTs: 1}},
		{"NaN bandwidth", Config{Name: "x", Nodes: 1, HopLatency: []float64{1}, LinkBandwidthGTs: math.NaN()}},
		{"infinite bandwidth", Config{Name: "x", Nodes: 1, HopLatency: []float64{1}, LinkBandwidthGTs: math.Inf(1)}},
		{"NaN hop latency", Config{Name: "x", Nodes: 2, Links: [][2]int{{0, 1}}, HopLatency: []float64{1, math.NaN()}, LinkBandwidthGTs: 1}},
		{"infinite hop latency", Config{Name: "x", Nodes: 2, Links: [][2]int{{0, 1}}, HopLatency: []float64{1, math.Inf(1)}, LinkBandwidthGTs: 1}},
		{"zero hop latency", Config{Name: "x", Nodes: 2, Links: [][2]int{{0, 1}}, HopLatency: []float64{1, 0}, LinkBandwidthGTs: 1}},
		{"negative unused hop latency", Config{Name: "x", Nodes: 1, HopLatency: []float64{1, -1}, LinkBandwidthGTs: 1}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// chain links n nodes in a line, so its diameter is n-1.
func chain(n int) [][2]int {
	links := make([][2]int, n-1)
	for i := range links {
		links[i] = [2]int{i, i + 1}
	}
	return links
}

// ramp is a hop-latency table for n nodes: local 1.0, rising with hops.
func ramp(n int) []float64 {
	lat := make([]float64, n)
	for h := range lat {
		lat[h] = 1 + 0.1*float64(h)
	}
	return lat
}

func TestMaxNodesAccepted(t *testing.T) {
	top, err := New(Config{Name: "line", Nodes: MaxNodes, Links: chain(MaxNodes), HopLatency: ramp(MaxNodes), LinkBandwidthGTs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top.Diameter() != MaxNodes-1 {
		t.Errorf("diameter = %d, want %d", top.Diameter(), MaxNodes-1)
	}
}

func TestSingleNode(t *testing.T) {
	top, err := New(Config{Name: "UMA", Nodes: 1, HopLatency: []float64{1}, LinkBandwidthGTs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if top.Diameter() != 0 || top.Latency(0, 0) != 1.0 {
		t.Error("single-node topology should be trivially local")
	}
}

func TestString(t *testing.T) {
	s := MachineA().String()
	if s == "" {
		t.Error("String() should not be empty")
	}
}
