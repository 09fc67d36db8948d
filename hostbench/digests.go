package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// recordedJSON holds the per-cell digests of the simulated results,
// recorded at the default and the held-out seed. Regenerate an entry with
// `--digests` and record the reason in CHANGES.md.
//
//go:embed digests.json
var recordedJSON []byte

// recordedDigests is the parsed digests.json.
type recordedDigests struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"heldout_seed"`
	// Workloads maps workload -> seed -> cell -> digest.
	Workloads map[string]map[string]map[string]string `json:"workloads"`
}

func loadRecorded() (recordedDigests, error) {
	var r recordedDigests
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		return r, fmt.Errorf("digests.json: %w", err)
	}
	return r, nil
}

// compareDigests reports whether this run's simulated results match the
// recorded ones for its seed. A mismatch is not a failed cell: simulated
// semantics may change on purpose, and the benchmark must keep measuring.
func compareDigests(workload string, seed uint64, got map[string]string) []string {
	rec, err := loadRecorded()
	if err != nil {
		return []string{err.Error()}
	}
	want, ok := rec.Workloads[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return []string{fmt.Sprintf("no recorded digest for %s at seed %d", workload, seed)}
	}
	var changed []string
	for cell, d := range want {
		if got[cell] != d {
			changed = append(changed, cell)
		}
	}
	for cell := range got {
		if _, ok := want[cell]; !ok {
			changed = append(changed, cell)
		}
	}
	if len(changed) == 0 {
		return []string{fmt.Sprintf("digest matches the recorded %s seed %d", workload, seed)}
	}
	sort.Strings(changed)
	return []string{fmt.Sprintf("simulated results changed: %s seed %d cells %s", workload, seed, strings.Join(changed, ", "))}
}

// printDigests runs every cell of a workload once and prints its digests
// as one JSON object, the shape of one digests.json seed entry.
func printDigests(w io.Writer, workload string, seed uint64) error {
	rep, err := run(workload, seed, calDims, 0, false)
	if err != nil {
		return err
	}
	if _, failed := rep.attempted(); failed > 0 {
		return fmt.Errorf("%d cells failed: %s", failed, strings.Join(rep.Notes, "; "))
	}
	b, err := json.MarshalIndent(rep.Digests, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
