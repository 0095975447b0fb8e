"""Run every workload over one or more seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--out FILE.json]
                                [--against perfbench/baseline.json]

It runs every workload in BENCHMARK.json and prints each run's end-to-end
metrics and error rate. Over two or more seeds it also prints, for each
workload and end-to-end metric, the median of the per-seed values and
the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound in BENCHMARK.json. With ``--out`` it also writes those
figures, with the seeds, corpus sizes, Python version and CPU count, as a
baseline record. With ``--against`` it checks a second set of runs against
such a record: no median may be worse by more than the metric's bound,
and every seed must have read inputs with the same sha256.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    record = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "seeds": _seeds(args.seeds),
              "workloads": {}}
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        values, inputs, properties = {}, {}, {}
        for seed in record["seeds"]:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
                status = 1
            for line in lines:
                if line.startswith("inputs: "):
                    inputs[seed] = json.loads(line[len("inputs: "):])
                elif line.startswith("workload: "):
                    properties[seed] = json.loads(line[len("workload: "):])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4f} {m['unit']}" for name, m in result["metrics"].items())
                + f" error_rate={result['failed'] / result['attempted']:.4g} ratio", flush=True)
        if len(record["seeds"]) < 2:
            continue
        summary = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:14s} {name:12s} median={median:10.4f} "
                  f"spread={spread:.4f} bound={bounds[name]}{flag}", flush=True)
        record["workloads"][workload] = {"metrics": summary, "properties": properties,
                                         "inputs_sha256": inputs}
        if args.against:
            status |= _against(args.against, workload, record["workloads"][workload],
                               bounds, lower_is_better)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def _against(path, workload, current, bounds, lower_is_better) -> int:
    """Compare one workload's medians and input digests with an earlier record."""
    with open(path, "r", encoding="utf-8") as handle:
        earlier = json.load(handle)["workloads"][workload]
    status = 0
    for name, now in current["metrics"].items():
        before = earlier["metrics"][name]["median"]
        change = (now["median"] - before) / before
        worse = change if lower_is_better[name] else -change
        verdict = "ok" if worse <= bounds[name] else "WORSE than the bound"
        status |= verdict != "ok"
        print(f"{workload:14s} {name:12s} first={before:.4f} second={now['median']:.4f} "
              f"change={change:+.4f} {verdict}")
    same = {str(k): v for k, v in current["inputs_sha256"].items()} == earlier["inputs_sha256"]
    print(f"{workload:14s} input sha256 {'identical' if same else 'DIFFER'} across the two sets")
    return status | (not same)


if __name__ == "__main__":
    sys.exit(main())
