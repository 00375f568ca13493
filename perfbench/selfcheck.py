#!/usr/bin/env python3
"""Small-size self-check of the benchmark, run from a checkout's root:

    python3 perfbench/selfcheck.py

- the same seed yields the same op list, and another seed another one;
- every metric BENCHMARK.json names is printed, by name and with its
  unit, on every workload, untraced and traced, and every run is correct;
- the exact per-layer counts repeat exactly between two traced runs of
  the same seed;
- on a cycling workload, ``attempted`` and ``failed`` do not depend on
  the run's length.  Seed 10 of oneshot is used because its command list
  holds a ``render frame`` seed that the renderer fails today.

Each run is one second long (plus the fixed prefix); the whole check
takes about a minute.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def exact(name: str) -> bool:
    return (name.endswith(("_per_trial", "_per_locus", "_per_figure"))
            or name.startswith("sampling.accept_ratio.")
            or name == "cli.import_modules")


def run(workload: str, trace: int, seed: int = SEED,
        seconds: int = 1) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    return json.loads(last), "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(RUN.parent)]
    from workloads import WORKLOADS

    problems = []
    for name, workload in WORKLOADS.items():
        n = 3 * workload.round_len
        if workload.op_list(SEED, n) != workload.op_list(SEED, n):
            problems.append(f"{name}: the same seed gave two op lists")
        if workload.op_list(SEED, n) == workload.op_list(SEED + 1, n):
            problems.append(f"{name}: two seeds gave one op list")

    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, None)):
            result, text = run(workload, trace)
            where = f"{workload} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: run not correct")
            if key is None:
                results["again"] = result
                continue
            results[key] = result
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {m: v["unit"] for m, v in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(declared.items()))}")
            for metric, unit in declared.items():
                if not any(line.split()[:1] == [metric] and f" {unit} " in f"{line} "
                           for line in text.splitlines()):
                    problems.append(f"{where}: {metric} [{unit}] not printed")
        first = results["per_layer"]["metrics"]
        again = results["again"]["metrics"]
        for metric in filter(exact, first):
            if first[metric]["value"] != again[metric]["value"]:
                problems.append(f"{workload}: {metric} did not repeat: "
                                f"{first[metric]['value']} vs {again[metric]['value']}")
        print(f"{workload}: checked", flush=True)

    for name, workload in WORKLOADS.items():
        if not workload.cycles:
            continue
        counts = [(r["attempted"], r["failed"])
                  for r, _ in (run(name, 0, 10, seconds) for seconds in (1, 12))]
        if counts[0] != counts[1]:
            problems.append(f"{name}: attempted/failed depend on the run's length: "
                            f"{counts}")
        print(f"{name}: counts checked {counts}", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
