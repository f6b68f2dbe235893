"""One timed pass of a workload in a fresh interpreter.

Usage: python3 child.py --workload NAME --seed N [--trace] [--setup-only]

The child first times a fixed reference loop, a probe of how fast the
machine runs right now.  The import of hilbtaut and hilbtaut.cli is
timed next, before anything else is imported, so ``setup_s`` is what a
CLI invocation pays.  The pass then runs the workload's cases in an
order drawn from the seed, probing the machine's speed again before the
first case and after every half second or so of cases.  The child
prints one JSON line: reference, setup and segment seconds, peak RSS,
each case's normalised output (or its error) and, with --trace, the
per-layer metrics.  The parent compares outputs with the frozen ones.
"""

import time


def reference() -> float:
    """Seconds for a fixed stdlib-only loop: a probe of machine speed.

    The timed loop allocates no object the cyclic collector tracks, so
    its time does not depend on how much the program has allocated.
    """
    table = dict.fromkeys(range(1024), 0)
    acc = 1
    start = time.perf_counter()
    for i in range(400_000):
        key = (acc ^ i) & 1023
        table[key] = (table[key] + acc) % 1_000_003
        acc = (acc * 31 + key) & 0xFFFFFF
    return time.perf_counter() - start


REF_START = reference()
_T0 = time.perf_counter()
import hilbtaut  # noqa: E402
import hilbtaut.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hilbtaut.tautops  # noqa: E402

HERE = Path(__file__).resolve().parent

# Cases shorter than this are timed together between two speed probes.
PROBE_EVERY_S = 0.5

# README names the per-case timings as the only nondeterministic bytes.
_SECONDS = re.compile(r'"seconds": [0-9.eE+-]+')


def _normalise_library(call: str, result):
    if call == "verify_filtration":
        return {
            "full_nullities": [list(r) for r in result.full_nullities],
            "invariant_nullities": [list(r) for r in result.invariant_nullities],
            "graded": [[list(mu), list(d)] for mu, d in result.graded.items()],
            "exploratory": result.exploratory,
            "mismatches": [list(m) for m in result.mismatches],
            "passed": result.passed,
        }
    if call == "graded_dims":
        return [[list(mu), list(d)] for mu, d in result.items()]
    return list(result)


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hilbtaut.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_pass(cases, seed: int):
    """Run every case once, in seeded order.

    The cases are timed in segments of at least ``PROBE_EVERY_S``, with
    the reference loop probed before the first segment and after each.
    Returns the segments' seconds, the probes' seconds and the raw
    results by case id.
    """
    order = list(range(len(cases)))
    random.Random(seed).shuffle(order)
    raw = {}
    segment_s = [0.0]
    probe_s = [reference()]
    for i in order:
        case = cases[i]
        start = time.perf_counter()
        try:
            if "argv" in case:
                argv = list(case["argv"])
                if case.get("seeded"):
                    argv += ["--seed", str(seed)]
                raw[case["id"]] = ("cli", _run_cli(argv))
            else:
                fn = getattr(hilbtaut.tautops, case["call"])
                raw[case["id"]] = ("lib", fn(*case["args"], **case["kwargs"]))
        except Exception as exc:
            raw[case["id"]] = ("error", f"{type(exc).__name__}: {exc}")
        segment_s[-1] += time.perf_counter() - start
        if segment_s[-1] >= PROBE_EVERY_S:
            probe_s.append(reference())
            segment_s.append(0.0)
    if segment_s[-1]:
        probe_s.append(reference())
    else:
        segment_s.pop()
    return segment_s, probe_s, raw


def normalise(case, kind, value, seed: int):
    """The comparable form of one case's output."""
    if kind == "error":
        return {"error": value}
    if kind == "lib":
        return _normalise_library(case["call"], value)
    code, out, err = value
    out = _SECONDS.sub('"seconds": null', out)
    if case.get("seeded"):
        out = out.replace(f'"seed": {seed},', '"seed": "SEED",')
    return {"exit": code, "stdout": out, "stderr": err}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S, "ref_s": [REF_START]}))
        return 0
    workloads = json.loads((HERE / "workloads.json").read_text())
    cases = workloads[args.workload]["cases"]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    segment_s, probe_s, raw = run_pass(cases, args.seed)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_id = {case["id"]: case for case in cases}
    outputs = {
        cid: normalise(by_id[cid], kind, value, args.seed)
        for cid, (kind, value) in raw.items()
    }
    report = {
        "setup_s": SETUP_S,
        "segment_s": segment_s,
        "probe_s": probe_s,
        "peak_rss_mib": peak_rss_mib,
        "ref_s": [REF_START, probe_s[0], probe_s[-1]],
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(sum(segment_s))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
