#!/usr/bin/env python3
"""Compare two result sets of the end-to-end frame benchmark.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `run.py --save`; runs with --trace 0
give the end-to-end metrics, runs with --trace 1 the per-layer split. For
every workload and metric this prints both sides' median and quartiles
[q1, q3] and the change of the medians. An end-to-end metric whose median
got worse by more than its bound in BENCHMARK.json is flagged WORSE, and
one that improved by more than its bound is flagged better. Per-layer
metrics have no bound; a count that must repeat exactly for a given seed
is flagged COUNT when any two runs of a seed the sets share disagree.
Medians and quartiles are taken over every run, so a set may repeat a
seed. Exits 1 when anything is flagged WORSE or COUNT.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

# Counts that a seed fixes exactly (NOTES.md, "What repeats exactly").
EXACT = {
    "wire_bytes_per_frame", "core.stream.ref_ratio", "core.stream.data_tiles_per_frame",
    "compress.encode_memo.hit_ratio", "net.buffer.copies_per_frame", "net.buffer.copied_bytes_per_frame",
    "core.assist.remote_tiles_used_per_frame", "core.assist.stale_tiles_used",
    "core.assist.locally_covered_tiles", "core.data_service.rebalances",
    "core.data_service.updates_committed_per_frame", "scene.updates_applied_per_frame",
    "render.rays_per_frame", "render.bricks_skipped_per_frame", "net.relay.forwarded_bytes_per_frame",
}


def load(path):
    """{(workload, trace): [record, ...]}"""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs[(record["meta"]["workload"], record["meta"]["trace"])].append(record)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records if metric in r["result"]["metrics"]]


def by_seed(records, metric):
    """{seed: [value of every run with that seed]}"""
    seeds = defaultdict(list)
    for r in records:
        if metric in r["result"]["metrics"]:
            seeds[r["meta"]["seed"]].append(r["result"]["metrics"][metric]["value"])
    return seeds


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    flagged = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        print("\n%s  --trace %d   base: %d runs   new: %d runs" % (workload, trace, len(b_runs), len(n_runs)))
        print("  %-46s %-6s %-34s %-34s %8s  %s" % ("metric", "unit", "base median [q1, q3]",
                                                   "new median [q1, q3]", "change", "flag"))
        names = [n for n in n_runs[0]["result"]["metrics"] if n in b_runs[0]["result"]["metrics"]]
        for name in names:
            bm, bq1, bq3 = summary(values(b_runs, name))
            nm, nq1, nq3 = summary(values(n_runs, name))
            change = (nm - bm) / bm if bm else 0.0
            flag = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                worse = change > bound if e2e[name]["better"] == "lower" else change < -bound
                better = change < -bound if e2e[name]["better"] == "lower" else change > bound
                flag = "WORSE (bound %g)" % bound if worse else ("better" if better else "")
            if name in EXACT:
                b_seed, n_seed = by_seed(b_runs, name), by_seed(n_runs, name)
                if any(len(set(b_seed[s] + n_seed[s])) > 1 for s in set(b_seed) & set(n_seed)):
                    flag = (flag + " COUNT").strip()
            flagged = flagged or "WORSE" in flag or "COUNT" in flag
            unit = n_runs[0]["result"]["metrics"][name]["unit"]
            print("  %-46s %-6s %-34s %-34s %+7.1f%%  %s" % (
                name, unit, "%.6g [%.6g, %.6g]" % (bm, bq1, bq3), "%.6g [%.6g, %.6g]" % (nm, nq1, nq3),
                100 * change, flag))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
