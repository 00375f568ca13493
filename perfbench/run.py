#!/usr/bin/env python3
"""ccplane benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {frames,loci,oneshot} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a ccplane checkout; the program is imported from
``src/`` there (and run as ``python -m ccplane`` with ``src/`` on
PYTHONPATH for the oneshot workload).  ``CCPLANE_BACKEND`` is honoured as
the environment sets it.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: micro-timings on fixed
inputs, then a traced and an untraced replay of the workload's fixed
op prefix, then the workload itself untraced for the rest of the time.
``attempted`` and ``failed`` count distinct ops of the stream, so they
are fixed by the seed wherever the run stops on a cycling workload.
Human-readable lines come first; the last line of stdout is the JSON
result.  See perfbench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import yardstick

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "command_ms_p50": "ms",
    "command_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_headroom_log10": "log10",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_us") or name.startswith("verify.us_per_trial."):
        return "us"
    if name.endswith("_ms") or name.startswith("cli.command_ms."):
        return "ms"
    if name.endswith("_per_trial"):
        return "calls/op"
    if name.endswith("_per_locus"):
        return "calls/locus"
    if name.endswith("_per_figure"):
        return "bytes"
    if name == "cli.import_modules":
        return "count"
    return "ratio"


def use_checkout() -> None:
    """Import ccplane from this checkout's src/, or stop without a result."""
    if not (SRC / "ccplane" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ccplane sources under {SRC}; "
                         "run from the root of a ccplane checkout")
    sys.path.insert(0, str(SRC))
    import ccplane

    if SRC.resolve() not in Path(ccplane.__file__).resolve().parents:
        raise SystemExit(f"perfbench: ccplane imported from {ccplane.__file__}, "
                         f"not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


class Tally:
    """Outcomes of a stretch of ops, folded as they arrive.

    Failures are counted per distinct op of the stream: an op that a
    cycling workload runs on several passes is attempted once, and it has
    failed when it failed on any pass.
    """

    def __init__(self, round_len: int) -> None:
        self.round_len = round_len
        # (ops/s, [(label, ms) of each call]) of every complete round
        self.rounds: list[tuple[float, list[tuple[str, float]]]] = []
        # stream index -> (label, ops, failed ops) of every op run
        self.outcomes: dict[int, tuple[str, int, int]] = {}
        self.wrong = 0
        self.busy_s = 0.0
        self.ratios: list[float] = []  # residual ratios of the prefix ops
        self.svg_bytes: list[int] = []  # of the prefix ops
        self.notes = Counter()
        self._round_ops = 0
        self._round_s = 0.0
        self._round_calls: list[tuple[str, float]] = []

    def add(self, count: int, index: int, op, seconds: float, outcome,
            in_prefix: bool) -> None:
        """Fold in the ``count``-th call of a run, op ``index`` of the stream."""
        self._round_calls.append((op.label, seconds * 1e3))
        self.record(index, op.label, outcome.ops, outcome.failed)
        self.wrong += outcome.wrong
        self.busy_s += seconds
        if outcome.note:
            self.notes[f"{op.label}: {outcome.note}"[:160]] += 1
        if in_prefix:
            self.ratios.extend(outcome.ratios)
            self.svg_bytes.extend(outcome.svg_bytes)
        self._round_ops += outcome.ops
        self._round_s += seconds
        if (count + 1) % self.round_len == 0:
            self.rounds.append((self._round_ops / self._round_s, self._round_calls))
            self._round_ops, self._round_s, self._round_calls = 0, 0.0, []

    def record(self, index: int, label: str, ops: int, failed: int) -> None:
        old = self.outcomes.get(index, (label, ops, 0))[2]
        self.outcomes[index] = (label, ops, max(failed, old))

    def attempted(self, label: str | None = None) -> int:
        return sum(ops for kind, ops, _ in self.outcomes.values() if label in (None, kind))

    def failed(self, label: str | None = None) -> int:
        return sum(bad for kind, _, bad in self.outcomes.values() if label in (None, kind))

    def ops_per_s(self) -> float:
        return statistics.median(rate for rate, _ in self.rounds)

    def latency_ms(self, label: str | None = None) -> list[float]:
        """Call latencies of complete rounds, of one kind or of all."""
        return [ms for _, calls in self.rounds for kind, ms in calls
                if label in (None, kind)]


def drive(workload, seed: int, deadline: float, tmp: Path, env: dict | None) -> Tally:
    """Closed loop over the op stream: the whole prefix, then whole rounds
    (of the stream, or of the prefix again on a cycling workload) until the
    deadline.  Commands run as processes with ``env``, or in
    this process when it is None.  Each call is timed in reference
    seconds, from the yardsticks measured just before and just after it."""
    from workloads import execute

    svg = tmp / "figure.svg"
    stick = yardstick.IN_PROCESS if env is None else yardstick.for_processes(env)
    tally = Tally(workload.round_len)
    before = stick.measure()
    for i, (index, op) in enumerate(workload.ops(seed)):
        if i >= workload.prefix and i % workload.round_len == 0 \
                and time.perf_counter() >= deadline:
            break
        seconds, outcome = execute(op, svg, env)
        after = stick.measure()
        tally.add(i, index, op, stick.scale(seconds, before, after), outcome,
                  i < workload.prefix)
        before = after
    return tally


def replay(workload, seed: int, tmp: Path) -> Tally:
    """The fixed prefix alone, every op in this process."""
    return drive(workload, seed, 0.0, tmp, None)


def setup_seconds(workload, seed: int, tmp: Path, env: dict) -> float:
    """Median time from a fresh interpreter to the first completed op, in
    reference seconds.

    One unrecorded run first, so every recorded one finds the bytecode
    cache written and the files in the page cache.
    """
    first = workload.make_op(seed, 0)
    if workload.in_process:
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), ",".join(workload.modules),
                first.theorem, first.geometry, str(first.trials), str(first.seed)]
    else:
        argv = [sys.executable, "-m", "ccplane", *first.argv(tmp / "setup.svg")]
    stick = yardstick.for_processes(env)
    samples = []
    before = stick.measure()
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        after = stick.measure()
        samples.append(stick.scale(wall, before, after))
        before = after
        if proc.returncode not in (0, 1):  # 1: the op ran and failed its check
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-400:]}")
    return statistics.median(samples[1:])


def end_to_end(workload, seed: int, seconds: float, tmp: Path, env: dict):
    setup = setup_seconds(workload, seed, tmp, env)
    start = time.perf_counter()
    tally = drive(workload, seed, start + seconds, tmp, None if workload.in_process else env)
    latency = tally.latency_ms()
    metrics = {
        "ops_per_s": tally.ops_per_s(),
        "command_ms_p50": statistics.median(latency),
        "command_ms_p90": percentile(latency, 0.9),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
        "residual_headroom_log10": -math.log10(statistics.median(tally.ratios)),
    }
    notes = {
        "ops_per_s": f"median of {len(tally.rounds)} rounds of {workload.round_len} calls",
        "command_ms_p50": f"{len(latency)} calls",
        "command_ms_p90": f"{len(latency)} calls",
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
        "peak_rss_mb": "benchmark process" if workload.in_process
                       else "largest ccplane process",
        "residual_headroom_log10": f"log10(gate/residual) of the median of "
                                   f"{len(tally.ratios)} gated outputs",
    }
    # Deterministic per seed, but too heavy-tailed across seeds to bound.
    worst = ("worst_residual_log10", math.log10(max(tally.ratios)), "log10",
             f"largest residual/gate over the first {workload.prefix} calls")
    return metrics, notes, [tally], [worst]


def per_layer(workload, seed: int, seconds: float, tmp: Path, env: dict):
    import micro
    from tracer import LAYERS, Tracer
    from workloads import ONESHOT_CYCLE

    start = time.perf_counter()
    metrics = micro.measure_all(env)

    plain = replay(workload, seed, tmp)
    with Tracer() as tracer:
        traced = replay(workload, seed, tmp)
    # Whatever time is left runs the workload as the end-to-end run does.
    rest = drive(workload, seed, start + seconds, tmp,
                 None if workload.in_process else env)

    ops = traced.attempted()
    calls = tracer.calls
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = tracer.self_time[layer] / traced.busy_s
    for layer in ("corevec", "kernel", "cevians"):
        metrics[f"{layer}.calls_per_trial"] = tracer.layer_calls[layer] / ops
    metrics["kernel.hdist_per_trial"] = calls["kernel.hdist"] / ops
    metrics["kernel.foot_of_perpendicular_per_trial"] = (
        calls["kernel.foot_of_perpendicular"] / ops)
    metrics["lexell.hypercycle_point_per_trial"] = calls["lexell.hypercycle_point"] / ops
    loci = calls["lexell.lexell_locus"]
    metrics["lexell.locus_residuals_per_locus"] = (
        calls["lexell.locus_residuals"] / loci if loci else 0.0)
    for geometry in ("hyperbolic", "spherical", "euclidean"):
        tried = tracer.triangle_attempts[geometry]
        metrics[f"sampling.accept_ratio.{geometry}"] = (
            tracer.triangle_accepted[geometry] / tried if tried else 0.0)
    metrics["render.svg_bytes_per_figure"] = (
        sum(plain.svg_bytes) / len(plain.svg_bytes) if plain.svg_bytes else 0.0)
    for kind in ONESHOT_CYCLE:
        # Commands exist on oneshot only; elsewhere the cli layer is idle.
        lat = rest.latency_ms(kind)
        tried = rest.attempted(kind)
        metrics[f"cli.command_ms.{kind}"] = statistics.median(lat) if lat else 0.0
        metrics[f"cli.fail_ratio.{kind}"] = rest.failed(kind) / tried if tried else 0.0
    metrics["trace.overhead_ratio"] = plain.ops_per_s() / traced.ops_per_s()

    notes = {"trace.overhead_ratio": f"{workload.prefix} calls untraced vs traced"}
    if traced.ratios != plain.ratios:
        traced.wrong += 1
        traced.notes["traced residuals differ from the untraced replay"] += 1
    return metrics, notes, [plain, traced, rest], []


def fingerprint() -> dict:
    import ccplane

    numpy = sys.modules.get("numpy")
    return {
        "backend": ccplane.BACKEND,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "numpy": getattr(numpy, "__version__", None),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("frames", "loci", "oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    use_checkout()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, tallies, info = measure(workload, args.seed, args.seconds, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Every tally runs ops of the same stream; each distinct op counts once.
    merged = Tally(workload.round_len)
    for tally in tallies:
        for index, outcome in tally.outcomes.items():
            merged.record(index, *outcome)
    attempted, failed = merged.attempted(), merged.failed()
    wrong = sum(t.wrong for t in tallies)
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print("times are reference seconds, see perfbench/yardstick.py; "
          f"in-process reference now {yardstick.IN_PROCESS.measure():.6f} s "
          f"(nominal {yardstick.IN_PROCESS.nominal_s:g} s)")
    unit = (lambda name: END_TO_END_UNITS[name]) if not args.trace else layer_unit
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit(name):<12} {notes.get(name, '')}")
    info.append(("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops"))
    for name, value, unit_name, note in info:
        print(f"  {name:<44} {value:>14.6g} {unit_name:<12} {note}")
    for note, count in sorted(sum((t.notes for t in tallies), Counter()).items()):
        print(f"  failure x{count}: {note}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
