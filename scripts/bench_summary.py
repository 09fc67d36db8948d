#!/usr/bin/env python3
"""Summarize numabench/tpchbench/numatune JSONL results files.

Usage: bench_summary.py results.jsonl [more.jsonl ...] > BENCH.json

Accepts two record layouts, distinguished by each record's schema field:

- repro/bench/v1+v2 (numabench/tpchbench grid cells): grouped per
  experiment as record count, total host wall time (seconds, summed over
  host_ns — the only nondeterministic field), and total simulated cycles.
- repro/tune/v1 (numatune campaign trials): grouped per campaign as
  trials run, simulated-cycle budget spent, and the best full-fraction
  configuration found. Campaign records carry no host_ns by design.
  Latency campaigns (objective=p99_latency, the WS workload) additionally
  report the objective: their wall_cycles hold p99 cycles, not wall time.

Serving cells (the serve experiment's latency records, recognized by a
p999 key in extra) additionally summarize per cell: latency percentiles,
SLO attainment and throughput, under a top-level "serving" key.

Adaptive placement cells (the adapt experiment's records, recognized by
ops + thread_moves keys in extra) summarize per cell: accesses completed,
local access ratio and the orchestrator's actions, under a top-level
"adaptive" key.

Span files (repro/spans/v1, written by -spans) summarize per cell under a
top-level "spans" key: span counts by kind, total and mean service
cycles, and the in-window kind/initiator event totals the blame join
cuts by.

CI regenerates this as BENCH_ci.json from one run over the cal-scale
fig2+profile sweep, an sha tuning campaign and the adaptive serving cells.
"""
import json
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: bench_summary.py results.jsonl [more.jsonl ...]")
    experiments = {}
    campaigns = {}
    serving = {}
    adaptive = {}
    spans = {}
    for path in sys.argv[1:]:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("schema") == "repro/spans/v1":
                    cell = rec.get("cell") or "(unlabeled)"
                    s = spans.setdefault(cell, {
                        "spans": 0,
                        "by_kind": {},
                        "service_cycles": 0.0,
                        "events": {},
                    })
                    s["spans"] += 1
                    kind = rec.get("kind", "?")
                    s["by_kind"][kind] = s["by_kind"].get(kind, 0) + 1
                    if kind == "service":
                        s["service_cycles"] += rec["end"] - rec["start"]
                        for k, n in (rec.get("events") or {}).items():
                            s["events"][k] = s["events"].get(k, 0) + n
                    continue
                if rec.get("schema") == "repro/tune/v1":
                    c = campaigns.setdefault(rec["campaign"], {
                        "trials": 0,
                        "sim_cycles_spent": 0.0,
                        "best_config": None,
                        "best_cycles": None,
                    })
                    c["trials"] += 1
                    c["sim_cycles_spent"] += rec["wall_cycles"]
                    if rec.get("objective"):
                        c["objective"] = rec["objective"]
                    if rec.get("frac", 1) == 1 and (
                            c["best_cycles"] is None
                            or rec["wall_cycles"] < c["best_cycles"]):
                        c["best_cycles"] = rec["wall_cycles"]
                        c["best_config"] = rec["key"]
                else:
                    e = experiments.setdefault(rec["experiment"], {
                        "records": 0,
                        "host_seconds": 0.0,
                        "sim_wall_cycles": 0.0,
                    })
                    e["records"] += 1
                    e["host_seconds"] += rec["host_ns"] / 1e9
                    e["sim_wall_cycles"] += rec["wall_cycles"]
                    extra = rec.get("extra") or {}
                    if "p999" in extra:
                        cell = f'{rec["experiment"]}/{rec["cell"]}'
                        serving[cell] = {
                            "requests": extra.get("requests"),
                            "mean_latency": extra.get("mean_latency"),
                            "p50": extra.get("p50"),
                            "p99": extra.get("p99"),
                            "p999": extra.get("p999"),
                            "throughput_per_bcycles": extra.get("rpbc"),
                            "slo_attainment": {
                                k[len("slo_"):]: v for k, v in sorted(extra.items())
                                if k.startswith("slo_")
                            },
                        }
                    if "ops" in extra and "thread_moves" in extra:
                        cell = f'{rec["experiment"]}/{rec["cell"]}'
                        adaptive[cell] = {
                            "ops": extra.get("ops"),
                            "lar": extra.get("lar"),
                            "orchestrator_ticks": extra.get("ticks"),
                            "thread_moves": extra.get("thread_moves"),
                            "page_moves": extra.get("page_moves"),
                            "reweights": extra.get("reweights"),
                        }
    for e in experiments.values():
        e["host_seconds"] = round(e["host_seconds"], 3)
    for s in spans.values():
        n = s["by_kind"].get("service", 0)
        s["mean_service_cycles"] = round(s["service_cycles"] / n, 1) if n else None
        if not s["events"]:
            del s["events"]
    out = {
        "schema": "repro/bench-summary/v2",
        "experiments": {k: experiments[k] for k in sorted(experiments)},
    }
    if campaigns:
        out["campaigns"] = {k: campaigns[k] for k in sorted(campaigns)}
    if serving:
        out["serving"] = {k: serving[k] for k in sorted(serving)}
    if adaptive:
        out["adaptive"] = {k: adaptive[k] for k in sorted(adaptive)}
    if spans:
        out["spans"] = {k: spans[k] for k in sorted(spans)}
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
