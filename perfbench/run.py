"""Benchmark of hilbtaut: end-to-end and per-layer metrics per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and their cases are in ``workloads.json``; the outputs every
case must reproduce are in ``expected.json`` (see ``freeze.py``).

Every timed pass runs in a fresh child interpreter (``child.py``),
started one at a time from this process, so each pass pays cold
``lru_cache``s as a CLI user does, and no result cache can last from one
pass to the next.  The program runs from ``src/`` as it stands; its
bytecode cache goes to ``.bench_build/pycache`` in the checkout.

One unmeasured child first compiles the bytecode.  Then passes start
while fewer than ``--seconds`` seconds have gone by, so a run overruns by
at most one pass.  Before each pass, and once after the last,
``SETUP_CHILDREN`` children only import the package, so set-up samples
are spread over the run.

Times are scaled to a nominal machine speed.  On a shared machine the
speed of this process swings by up to 2x over a few seconds, and a
pure-Python loop slows as much as the program does.  So every child
probes the speed with a fixed stdlib-only loop (``child.reference``):
before its import, and in a pass also before the first case and after
each segment of cases (see ``child.run_pass``).  A segment's seconds are
multiplied by ``REF_NOMINAL_S`` over the mean of the probes on either
side of it; a set-up sample by
``REF_NOMINAL_S`` over the median probe of its neighbouring children.
Times thus read as seconds on a machine where the loop takes
``REF_NOMINAL_S``.  Unscaled medians are printed on the summary lines.

With ``--trace 0`` the result has the end-to-end metrics, each the median
over the run's samples:

* ``pass_s``: scaled seconds of one pass over the case list, the sum of
  its cases, timed inside the child after its imports;
* ``setup_s``: scaled seconds to import hilbtaut and hilbtaut.cli in a
  fresh child, over the import-only children and the pass children;
* ``peak_rss_mib``: the child's peak resident set after its pass.

With ``--trace 1`` traced and untraced passes alternate, starting with a
traced one, and there are at least two traced passes.  The result has
the per-layer metrics of ``spans.py``: counts from the traced passes,
which must repeat exactly from pass to pass, and the medians of their
self-time shares.  ``trace.overhead_s`` is the median traced pass minus
the median untraced pass, both scaled.

A case fails if it raises, returns a value other than the frozen one, or
exits with another code or other stdout.  ``attempted`` counts cases run
over all passes and ``failed`` the failures among them; their ratio, the
issue's ``fail_ratio``, is printed on a summary line.  Every summary line
goes before the last line, which is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 2
# Times are reported as if the reference loop took this long.
REF_NOMINAL_S = 0.1
MIN_TRACED_PASSES = 2
# A run must end within 180 s; children are killed past this point.
RUN_LIMIT_S = 170.0

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(workload: dict) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.update(workload.get("env", {}))
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run child.py to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran out of time")
    if proc.returncode != 0:
        raise BenchError(
            f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failures(outputs: dict, expected: dict) -> list[str]:
    return [cid for cid, want in expected.items() if outputs.get(cid) != want]


def measure(name: str, workload: dict, expected: dict, seed: int,
            seconds: float, trace: bool, started: float) -> dict:
    deadline = started + RUN_LIMIT_S
    env = child_env(workload)
    base = ["--workload", name, "--seed", str(seed)]
    run_child(base + ["--setup-only"], env, deadline)  # compiles bytecode
    children, plain, traced = [], [], []

    def setup_batch():
        children.extend(run_child(base + ["--setup-only"], env, deadline)
                        for _ in range(SETUP_CHILDREN))

    window = time.monotonic()
    while (time.monotonic() - window < seconds or not plain
           or (trace and len(traced) < MIN_TRACED_PASSES)):
        setup_batch()
        with_trace = trace and len(traced) <= len(plain)
        report = run_child(base + ["--trace"] * with_trace, env, deadline)
        children.append(report)
        (traced if with_trace else plain).append(report)
    setup_batch()
    # A set-up sample is scaled by the speed its neighbouring children
    # probed; a pass, segment by segment, by the probes on either side.
    for i, child in enumerate(children):
        near = children[max(0, i - SETUP_CHILDREN):i + SETUP_CHILDREN + 1]
        ref = statistics.median(r for c in near for r in c["ref_s"])
        child["scale"] = REF_NOMINAL_S / ref
    for report in plain + traced:
        probes = report["probe_s"]
        report["pass_s"] = sum(report["segment_s"])
        report["scaled_pass_s"] = sum(
            sec * 2 * REF_NOMINAL_S / (before + after)
            for sec, before, after in zip(report["segment_s"], probes, probes[1:]))
    passes = plain + traced
    attempted = len(expected) * len(passes)
    failed_ids = [cid for r in passes for cid in failures(r["outputs"], expected)]
    raw = {
        "pass_s": [r["pass_s"] for r in plain],
        "setup_s": [c["setup_s"] for c in children],
        "ref_s": [r for c in children for r in c["ref_s"]],
    }
    samples = {
        "pass_s": [r["scaled_pass_s"] for r in plain],
        "setup_s": [c["setup_s"] * c["scale"] for c in children],
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
    }
    result = {
        "attempted": attempted,
        "failed": len(failed_ids),
        "failed_ids": sorted(set(failed_ids)),
        "samples": samples,
        "raw": raw,
    }
    if trace:
        result["layers"] = [r["layers"] for r in traced]
        result["traced_pass_s"] = [r["scaled_pass_s"] for r in traced]
    return result


def layer_summary(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the counts that did not repeat."""
    from spans import COUNT_METRICS, RATIO_METRICS, SHARE_METRICS

    layers = result["layers"]
    unsteady = [m for m in COUNT_METRICS + RATIO_METRICS
                if any(l[m] != layers[0][m] for l in layers)]
    metrics = {m: {"value": layers[0][m], "unit": "count"} for m in COUNT_METRICS}
    for m in RATIO_METRICS:
        metrics[m] = {"value": layers[0][m], "unit": "ratio"}
    for m in SHARE_METRICS:
        metrics[m] = {"value": statistics.median(l[m] for l in layers), "unit": "ratio"}
    traced = statistics.median(result["traced_pass_s"])
    plain = statistics.median(result["samples"]["pass_s"])
    metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    return metrics, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    try:
        if not (ROOT / "src" / "hilbtaut" / "__init__.py").is_file():
            raise BenchError(f"no hilbtaut sources under {ROOT / 'src'}")
        workloads = json.loads((HERE / "workloads.json").read_text())
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}")
        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
        result = measure(args.workload, workloads[args.workload], expected,
                         args.seed, args.seconds, bool(args.trace), started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = result["failed"] == 0
    ratio = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"fail_ratio {result['failed']}/{result['attempted']} = {ratio:g}")
    for cid in result["failed_ids"]:
        print(f"  FAILED {cid}")
    for name, values in result["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name}: median {q2:.6g} {END_TO_END[name]} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    for name, values in result["raw"].items():
        q1, q2, q3 = quartiles(values)
        print(f"  unscaled {name}: median {q2:.6g} s "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    if args.trace:
        metrics, unsteady = layer_summary(result)
        for name in unsteady:
            print(f"  count {name} differs between traced passes")
        correct = correct and not unsteady
        for name, m in metrics.items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            name: {"value": statistics.median(values), "unit": END_TO_END[name]}
            for name, values in result["samples"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
