#!/usr/bin/env python3
"""Measures the end-to-end metrics of every workload on several seeds and
records median, min-max and quartile spread under a label in BASELINE.json.

    python3 benchmark/baseline.py --label baseline --seeds 41 42 43
    python3 benchmark/baseline.py --label spread --seeds 1 2 3 4 5 6 7 8 9 10

Run from the root of the checkout. The spread of a metric is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4) as a share of their median: the figure BENCHMARK.json's bounds are
checked against.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out}")
    return result


def summary(values):
    row = {"median": statistics.median(values), "min": min(values), "max": max(values),
           "values": values}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row["iqr_share"] = (q3 - q1) / row["median"]
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--file", default=str(HERE / "BASELINE.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    section = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        rows = section["workloads"][workload] = {}
        for name in bounds:
            rows[name] = summary([r["metrics"][name]["value"] for r in runs])
            rows[name]["unit"] = runs[0]["metrics"][name]["unit"]
            share = rows[name].get("iqr_share")
            print(f"{workload:24} {name:12} median {rows[name]['median']:12.4f} "
                  f"[{rows[name]['min']:.4f} .. {rows[name]['max']:.4f}]"
                  + (f"  iqr/median {share:.4f} (bound {bounds[name]})" if share is not None else ""),
                  flush=True)

    path = pathlib.Path(args.file)
    doc = json.loads(path.read_text()) if path.exists() else {}
    with open(HERE / "out" / f"result-{SPEC['workloads'][0]['name']}-trace0.json") as f:
        doc["host"] = json.load(f)["host"]
    doc[args.label] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
