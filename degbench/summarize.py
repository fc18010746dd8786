#!/usr/bin/env python3
"""Medians and quartiles of benchmark result files, per workload.

    python3 degbench/summarize.py .degbench/results/*.json [--out FILE]

Reads the detail files that run.py writes and prints, per workload, each
end-to-end metric's median, quartiles and spread (quartile distance over the
median), scaled to the reference host speed and raw, the calibration loop's
time, the median raw per-instance solve times, and the per-layer metrics of
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(paths: list[Path]) -> dict:
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in paths:
        doc = json.loads(path.read_text())
        runs[doc["workload"]][doc["trace"]].append(doc)
    out = {}
    for workload, by_trace in sorted(runs.items()):
        untraced, traced = by_trace[0], by_trace[1]
        entry = {"machine": (untraced or traced)[0]["machine"],
                 "seeds": sorted(d["seed"] for d in untraced),
                 "correct": all(d["correct"] for d in untraced + traced),
                 "failures": sorted({tuple(f[:2]) for d in untraced for f in d["failures"]})}
        if untraced:
            names = untraced[0]["end_to_end"]
            entry["end_to_end"] = {k: quartiles([d["end_to_end"][k] for d in untraced])
                                   for k in names}
            entry["end_to_end_raw"] = {k: quartiles([d["end_to_end_raw"][k] for d in untraced])
                                       for k in names}
            entry["host_calib_s"] = quartiles([d["host"]["calib_s"] for d in untraced])
            seconds = defaultdict(list)
            for d in untraced:
                for cid, rec in d["per_instance"].items():
                    seconds[cid].append(statistics.median(rec["seconds"]))
            entry["instance_seconds_median"] = {cid: statistics.median(v)
                                                for cid, v in seconds.items()
                                                if len(v) == len(untraced)}
        if traced:
            names = traced[0]["per_layer"]
            entry["per_layer"] = {k: statistics.median([d["per_layer"][k] for d in traced])
                                  for k in names}
            entry["traced_seeds"] = sorted(d["seed"] for d in traced)
        out[workload] = entry
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    text = json.dumps(summarize(args.results), indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
