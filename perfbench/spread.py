"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py [--out perfbench/baseline.json]

For every workload, runs ``run.py`` untraced once per seed (1 to 10) for
``run_seconds`` of ``BENCHMARK.json`` and prints, for each end-to-end
metric, the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Then it
makes one traced run per workload.  With ``--out`` everything, including
the traced run's per-layer metrics and per-stage breakdown, is written as
JSON (``baseline.json`` is such a file).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUNS = 10
FIRST_SEED = 1


def spread(values) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def record_of(name, seed, trace) -> dict:
    """The full record ``run.py`` wrote for this run."""
    path = os.path.join(HERE, "_work", "results", f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(name, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed for {name} seed {seed}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        lines, stages = [], []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result = run_once(name, seed, seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            lines.append(result)
            stages.append(record_of(name, seed, 0)["stage_s"])
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for key, first in lines[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in lines]
            med, iqr = spread(values)
            metrics[key] = {"unit": first["unit"], "median": med, "iqr_share": iqr,
                            "values": values}
            print(f"{name:16s} {key:14s} median {med:10.4f} {first['unit']:5s} "
                  f"iqr/median {iqr:.4f}")
        stage_s = {}
        for key in stages[0]:
            values = [s[key] for s in stages]
            if statistics.median(values) > 0.0:
                med, iqr = spread(values)
                stage_s[key] = {"unit": "s", "median": med, "iqr_share": iqr}
                print(f"{name:16s} {key:20s} median {med:10.4f} s     iqr/median {iqr:.4f}")
        traced = run_once(name, FIRST_SEED, seconds, 1)
        ok &= traced["correct"] and traced["failed"] == 0
        record = record_of(name, FIRST_SEED, 1)
        print(f"{name} traced seed={FIRST_SEED} correct={traced['correct']} "
              f"overhead={record['per_layer']['trace.overhead_ratio']:.4f} "
              f"cross-check failures={record['cross_check_failures']}", flush=True)
        summary[name] = {"correct": all(r["correct"] for r in lines),
                         "attempted": sum(r["attempted"] for r in lines),
                         "failed": sum(r["failed"] for r in lines), "metrics": metrics,
                         "stage_s": stage_s,
                         "traced": {"correct": traced["correct"],
                                    "per_layer": record["per_layer"],
                                    "stage_breakdown": record["stage_breakdown"],
                                    "cross_check_failures": record["cross_check_failures"],
                                    "environment": record["environment"]}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
