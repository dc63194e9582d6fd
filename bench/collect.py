#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the results.

Run from the repository root:

    python3 bench/collect.py --seeds 0-9 --trace 0 --out bench/baseline.json

For each workload in BENCHMARK.json, and each seed, it runs the benchmark
command once, one run at a time, with ``run_seconds`` from BENCHMARK.json.
It keeps each result line. Per metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
The summary is stored under the key ``trace0`` or ``trace1`` of ``--out``;
other keys already in that file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,4,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    section = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results, details = [], []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            results.append(result)
            details.append(json.loads(lines[-2])["detail"])
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        metrics = results[0]["metrics"]
        section["workloads"][name] = {
            "summary": {k: {"unit": metrics[k]["unit"],
                            **summarise([r["metrics"][k]["value"] for r in results])}
                        for k in metrics},
            "correct": all(r["correct"] for r in results),
            "results": results,
        }
        section["environment"] = details[0]["environment"]
    doc[f"trace{args.trace}"] = section
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
