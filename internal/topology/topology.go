// Package topology describes NUMA machine topologies: nodes, the
// interconnect links between them, hop distances and relative memory access
// latencies.
//
// A Topology is a static description consumed by the machine simulator; it
// carries no mutable state. The three machines evaluated by the paper
// (Table II and Figure 1) are available as presets: MachineA (an 8-node AMD
// "twisted ladder"), MachineB and MachineC (4-node fully connected Intel
// boxes with very different remote-access latency ratios).
package topology

import (
	"fmt"
	"math"
	"strings"
)

// MaxNodes is the largest node count New accepts. The simulator stores a
// page's node in an int8 and packs node+1 into eight bits of its
// last-writer directory, so a larger topology would corrupt both.
const MaxNodes = 127

// NodeID identifies a NUMA node within a topology.
type NodeID int

// Topology is an immutable description of a NUMA machine's node graph and
// its relative memory access latencies.
type Topology struct {
	name      string
	nodes     int
	links     [][]bool    // adjacency matrix
	hops      [][]int     // shortest-path hop counts
	latency   [][]float64 // relative access latency (local == 1.0)
	bandwidth float64     // per-link interconnect bandwidth, GT/s
}

// Config describes a topology to be built with New.
type Config struct {
	// Name is a human-readable label, e.g. "Machine A".
	Name string
	// Nodes is the number of NUMA nodes, from 1 to MaxNodes.
	Nodes int
	// Links lists undirected interconnect links as node pairs.
	Links [][2]int
	// HopLatency maps hop count -> relative memory latency. Index 0 is
	// local access latency and must be 1.0; every entry must be finite and
	// positive. The table must cover the topology's diameter.
	HopLatency []float64
	// LinkBandwidthGTs is the per-link interconnect bandwidth in
	// gigatransfers per second (Table II "Interconnect Bandwidth"); it
	// must be finite and positive.
	LinkBandwidthGTs float64
}

// New validates cfg and builds a Topology, computing hop distances by BFS
// and latencies from the hop-latency table.
func New(cfg Config) (*Topology, error) {
	if cfg.Nodes < 1 || cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("topology %q: need 1 to %d nodes, got %d", cfg.Name, MaxNodes, cfg.Nodes)
	}
	if len(cfg.HopLatency) == 0 || cfg.HopLatency[0] != 1.0 {
		return nil, fmt.Errorf("topology %q: HopLatency[0] must be 1.0 (local access)", cfg.Name)
	}
	for h, l := range cfg.HopLatency {
		if !finitePositive(l) {
			return nil, fmt.Errorf("topology %q: HopLatency[%d] = %v, must be finite and positive", cfg.Name, h, l)
		}
	}
	if !finitePositive(cfg.LinkBandwidthGTs) {
		return nil, fmt.Errorf("topology %q: link bandwidth %v GT/s, must be finite and positive", cfg.Name, cfg.LinkBandwidthGTs)
	}
	t := &Topology{
		name:      cfg.Name,
		nodes:     cfg.Nodes,
		bandwidth: cfg.LinkBandwidthGTs,
	}
	t.links = make([][]bool, cfg.Nodes)
	for i := range t.links {
		t.links[i] = make([]bool, cfg.Nodes)
	}
	for _, l := range cfg.Links {
		a, b := l[0], l[1]
		if a < 0 || a >= cfg.Nodes || b < 0 || b >= cfg.Nodes {
			return nil, fmt.Errorf("topology %q: link (%d,%d) references unknown node", cfg.Name, a, b)
		}
		if a == b {
			return nil, fmt.Errorf("topology %q: self-link on node %d", cfg.Name, a)
		}
		t.links[a][b] = true
		t.links[b][a] = true
	}
	var err error
	t.hops, err = bfsAll(t.links)
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w", cfg.Name, err)
	}
	t.latency = make([][]float64, cfg.Nodes)
	for i := range t.latency {
		t.latency[i] = make([]float64, cfg.Nodes)
		for j := range t.latency[i] {
			h := t.hops[i][j]
			if h >= len(cfg.HopLatency) {
				return nil, fmt.Errorf("topology %q: hop latency table has %d entries but diameter needs %d",
					cfg.Name, len(cfg.HopLatency), h+1)
			}
			t.latency[i][j] = cfg.HopLatency[h]
		}
	}
	return t, nil
}

// finitePositive reports whether x is a positive real number (not NaN, not
// infinite).
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MustNew is New but panics on error; intended for the package presets and
// tests with known-good configurations.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// bfsAll computes all-pairs shortest hop counts, verifying connectivity.
func bfsAll(links [][]bool) ([][]int, error) {
	n := len(links)
	hops := make([][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if links[u][v] && dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v, d := range dist {
			if d < 0 {
				return nil, fmt.Errorf("node %d unreachable from node %d", v, src)
			}
		}
		hops[src] = dist
	}
	return hops, nil
}

// Name returns the topology's human-readable label.
func (t *Topology) Name() string { return t.name }

// Nodes returns the number of NUMA nodes.
func (t *Topology) Nodes() int { return t.nodes }

// Linked reports whether nodes a and b share a direct interconnect link.
func (t *Topology) Linked(a, b NodeID) bool { return t.links[a][b] }

// Hops returns the minimum number of interconnect hops between two nodes
// (0 for a == b).
func (t *Topology) Hops(a, b NodeID) int { return t.hops[a][b] }

// Latency returns the relative memory access latency from a thread on node
// a to memory on node b, with local access normalized to 1.0.
func (t *Topology) Latency(a, b NodeID) float64 { return t.latency[a][b] }

// Diameter returns the maximum hop count between any pair of nodes.
func (t *Topology) Diameter() int {
	d := 0
	for i := 0; i < t.nodes; i++ {
		for j := 0; j < t.nodes; j++ {
			if t.hops[i][j] > d {
				d = t.hops[i][j]
			}
		}
	}
	return d
}

// LinkBandwidthGTs returns the per-link interconnect bandwidth in GT/s.
func (t *Topology) LinkBandwidthGTs() float64 { return t.bandwidth }

// Route returns a shortest path from a to b as a sequence of nodes,
// beginning with a and ending with b. Ties are broken toward lower node
// IDs so that routing is deterministic.
func (t *Topology) Route(a, b NodeID) []NodeID {
	path := []NodeID{a}
	cur := a
	for cur != b {
		next := NodeID(-1)
		for v := 0; v < t.nodes; v++ {
			if t.links[cur][v] && t.hops[v][b] == t.hops[cur][b]-1 {
				next = NodeID(v)
				break
			}
		}
		if next < 0 {
			// Unreachable by construction (New verifies connectivity).
			panic(fmt.Sprintf("topology %q: no route from %d to %d", t.name, a, b))
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// String renders a compact summary, e.g. "Machine A: 8 nodes, diameter 3".
func (t *Topology) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d nodes, diameter %d, %.1f GT/s links", t.name, t.nodes, t.Diameter(), t.bandwidth)
	return sb.String()
}
