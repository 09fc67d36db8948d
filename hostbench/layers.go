package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"
)

// layerNames lists the simulator layers the traced run reports, in print
// order. "goruntime" is the Go runtime and standard library; "other" is
// everything outside internal/ (hostbench itself, cmd/).
var layerNames = []string{
	"cache", "access", "engine", "index", "kernels", "vmm", "daemons",
	"observe", "alloc", "datagen", "harness", "goruntime", "other",
}

// layerRules map repository source files to layers. A rule ending in "/"
// covers a package directory; any other rule names one file. Rules are
// disjoint: internal/machine is split file by file, so no directory rule
// covers it. Every non-test file under internal/ must match exactly one
// rule (hostbench_test.go checks this), so new code cannot fall into
// "other" unnoticed.
var layerRules = []struct{ Path, Layer string }{
	{"internal/cache/", "cache"},

	{"internal/machine/thread.go", "access"},
	{"internal/machine/machine.go", "access"},
	{"internal/machine/params.go", "access"},
	{"internal/machine/spec.go", "access"},
	{"internal/topology/", "access"},

	{"internal/machine/lane.go", "engine"},
	{"internal/machine/sched.go", "engine"},

	{"internal/index/", "index"},

	{"internal/query/", "kernels"},
	{"internal/hashtable/", "kernels"},
	{"internal/numaop/", "kernels"},
	{"internal/serve/", "kernels"},
	{"internal/tpch/", "kernels"},

	{"internal/vmm/", "vmm"},

	{"internal/machine/kernel.go", "daemons"},
	{"internal/machine/observe.go", "daemons"},
	{"internal/orchestrator/", "daemons"},

	{"internal/machine/profile.go", "observe"},
	{"internal/machine/trace.go", "observe"},
	{"internal/trace/", "observe"},
	{"internal/span/", "observe"},

	{"internal/alloc/", "alloc"},

	{"internal/datagen/", "datagen"},
	{"internal/xrand/", "datagen"},

	// The experiment harness, the CLIs' shared code and reporting: not on the
	// benchmark's path, mapped so that a sample landing there is named.
	{"internal/cli/", "harness"},
	{"internal/core/", "harness"},
	{"internal/experiments/", "harness"},
	{"internal/memo/", "harness"},
	{"internal/report/", "harness"},
	{"internal/tune/", "harness"},
}

// layerOf maps a profile frame's file name to its layer. Module files
// match layerRules; files of other import paths without a dot in their
// first element are the Go runtime and standard library.
func layerOf(file string) string {
	// With -trimpath the module's files read "repro/<path>" when built in
	// the module and "repro@v0.0.0/<path>" when built through a replace.
	mod, rel, _ := strings.Cut(file, "/")
	switch {
	case mod == "repro" || strings.HasPrefix(mod, "repro@"):
		if l, n := matchLayer(rel); n == 1 {
			return l
		}
	case mod != "" && !strings.Contains(mod, "."):
		return "goruntime"
	}
	return "other"
}

// matchLayer returns the layer of a module-relative path and how many
// rules matched it.
func matchLayer(rel string) (layer string, matches int) {
	for _, r := range layerRules {
		hit := rel == r.Path
		if strings.HasSuffix(r.Path, "/") {
			name, ok := strings.CutPrefix(rel, r.Path)
			hit = ok && !strings.Contains(name, "/")
		}
		if hit {
			layer = r.Layer
			matches++
		}
	}
	return layer, matches
}

// layerTimes sums a CPU profile's samples by the layer of each sample's
// leaf frame (the innermost function, inlined frames included).
func layerTimes(gz []byte) (map[string]time.Duration, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]time.Duration{}
	for _, s := range p.samples {
		file := ""
		if len(s.locs) > 0 {
			if loc, ok := p.locs[s.locs[0]]; ok && len(loc) > 0 {
				file = p.files[loc[0]]
			}
		}
		out[layerOf(file)] += time.Duration(s.value)
	}
	return out, nil
}

// profile is the part of a pprof profile the layer sums need.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	files   map[uint64]string   // function id -> file name
}

type profSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof: sample (field 2), location (4), function (5) and the
// string table (6). The value used is the last sample value, which for a
// CPU profile is CPU nanoseconds.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, files: map[uint64]string{}}
	var strs []string
	funcFile := map[uint64]uint64{} // function id -> string index
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // Function
			var id, file uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					file = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcFile[id] = file
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcFile {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: string index %d out of range", si)
		}
		p.files[id] = strs[si]
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
