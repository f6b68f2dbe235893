"""Spans around hilbtaut's public functions, and the per-layer metrics.

Callers import by name (``from .linalg import sparse_int_rank``), so a
function is wrapped at every module attribute where a caller looks it up,
not only where it is defined.  A name the program no longer has is
skipped, and the metrics built from it read 0.

Each span records its name, wall start and end, thread CPU seconds,
parent, thread and counts.  Parents are tracked per thread.  A span
opened on a thread with no open span of its own takes the innermost open
span of the main thread as its parent.  ``verify`` runs its cases on a
thread pool; each task there is a ``cli.case`` span under ``cli.main``.

A span's self time is its thread CPU time minus that of its children on
the same thread.  CPU time rather than wall time, because the pool's
threads take turns on the interpreter lock: their wall intervals overlap,
and a layer would be charged for the time it waited for the lock.  Self
times therefore add up to at most the process's CPU time.  They are
reported as shares of the pass's wall seconds: a layer a workload
bypasses reads 0, and a time that reads 0 on every run would look like
no measurement at all.

Counts come from the wrapped call's arguments and return value and are
computed outside the span.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time


def _rank_prepare(args, kwargs):
    # sparse_int_rank accepts any iterable (int_rank passes a generator);
    # materialise it so the rows can be counted after the call.
    return (list(args[0]),) + tuple(args[1:]), kwargs


def _rank_counts(args, kwargs, result):
    rows = args[0]
    return {
        "rows": len(rows),
        "nnz": sum(1 for row in rows for v in row.values() if v),
        "rank": result,
    }


def _nullspace_counts(args, kwargs, result):
    return {"rows": len(args[0]), "dim": len(result)}


def _kernel_counts(args, kwargs, result):
    invariant = args[3] if len(args) > 3 else kwargs.get("invariant", True)
    return {"invariant": int(bool(invariant))}


def _len_counts(key):
    return lambda args, kwargs, result: {key: len(result)}


_RANK = ("linalg.sparse_int_rank", _rank_prepare, _rank_counts)
_JETS = ("polyjet.jet_conditions", None, _len_counts("functionals"))
_KERNEL = ("tautops.kernel_nullity", None, _kernel_counts)
_FILTRATION = ("tautops.verify_filtration", None, None)
_GRADED = ("tautops.graded_dims", None, None)
_QUOTIENT = ("combinat.quotient", None, None)
_RROCH = ("rroch", None, None)
_TOEPLITZ = ("toeplitz", None, None)
_SYMREP = ("symrep", None, None)

# (module, attribute) -> (span name, prepare, counts)
WRAPS = {
    ("hilbtaut.linalg", "sparse_int_rank"): _RANK,
    ("hilbtaut.tautops", "sparse_int_rank"): _RANK,
    ("hilbtaut.tautops", "fraction_rows_to_int"): (
        "linalg.fraction_rows_to_int", None, None),
    ("hilbtaut.polyjet", "nullspace"): ("linalg.nullspace", None, _nullspace_counts),
    ("hilbtaut.symrep", "nullspace"): ("linalg.nullspace", None, _nullspace_counts),
    ("hilbtaut.polyjet", "jet_conditions"): _JETS,
    ("hilbtaut.tautops", "jet_conditions"): _JETS,
    ("hilbtaut.tautops", "intersect_ideal_powers"): (
        "polyjet.intersect_ideal_powers", None, _len_counts("basis")),
    ("hilbtaut.tautops", "kernel_nullity"): _KERNEL,
    ("hilbtaut.cli", "kernel_nullity"): _KERNEL,
    ("hilbtaut.tautops", "verify_filtration"): _FILTRATION,
    ("hilbtaut.cli", "verify_filtration"): _FILTRATION,
    ("hilbtaut.tautops", "graded_dims"): _GRADED,
    ("hilbtaut.cli", "graded_dims"): _GRADED,
    ("hilbtaut.tautops", "quotient_A"): _QUOTIENT,
    ("hilbtaut.tautops", "quotient_B"): _QUOTIENT,
    ("hilbtaut.cli", "quotient_A"): _QUOTIENT,
    ("hilbtaut.cli", "quotient_B"): _QUOTIENT,
    ("hilbtaut.cli", "quotient_A0"): _QUOTIENT,
    ("hilbtaut.cli", "orbits"): ("combinat.orbits", None, _len_counts("orbits")),
    ("hilbtaut.cli", "get_surface"): _RROCH,
    ("hilbtaut.cli", "load_surface"): _RROCH,
    ("hilbtaut.cli", "chi_sym_power"): _RROCH,
    ("hilbtaut.cli", "chi_graded_piece_n2"): _RROCH,
    ("hilbtaut.cli", "chi_sym_power_n2"): _RROCH,
    ("hilbtaut.cli", "chi_sym_power_smallk"): _RROCH,
    ("hilbtaut.cli", "t_even"): _TOEPLITZ,
    ("hilbtaut.cli", "t_odd"): _TOEPLITZ,
    ("hilbtaut.cli", "r_matrix"): _TOEPLITZ,
    ("hilbtaut.cli", "det_exact"): _TOEPLITZ,
    ("hilbtaut.cli", "column_rank"): _TOEPLITZ,
    ("hilbtaut.cli", "antiinv_dims_R"): _SYMREP,
    ("hilbtaut.cli", "antiinv_dims_rho"): _SYMREP,
    ("hilbtaut.cli", "verify_omega"): _SYMREP,
    ("hilbtaut.cli", "verify_sym_map"): _SYMREP,
    ("hilbtaut.cli", "main"): ("cli.main", None, None),
}

# Per-layer metric names and units, in the order they are reported.
COUNT_METRICS = (
    "linalg.sparse_int_rank.calls",
    "linalg.sparse_int_rank.rows",
    "linalg.sparse_int_rank.nnz",
    "linalg.sparse_int_rank.rank",
    "linalg.nullspace.calls",
    "linalg.nullspace.rows",
    "linalg.nullspace.dim",
    "polyjet.jet_conditions.calls",
    "polyjet.jet_conditions.functionals",
    "polyjet.intersect_ideal_powers.basis",
    "combinat.orbits.calls",
    "combinat.orbits.orbits",
    "cli.main.calls",
    "cli.case.calls",
    "trace.spans",
)
RATIO_METRICS = ("linalg.sparse_int_rank.useful_ratio",)
# Self times, as shares of the traced pass's seconds.
SHARE_METRICS = (
    "linalg.sparse_int_rank.self_share",
    "linalg.fraction_rows_to_int.self_share",
    "linalg.nullspace.self_share",
    "polyjet.jet_conditions.self_share",
    "polyjet.intersect_ideal_powers.self_share",
    "tautops.kernel_nullity.self_share",
    "tautops.kernel_nullity.full_share",
    "tautops.kernel_nullity.invariant_share",
    "tautops.verify_filtration.self_share",
    "tautops.graded_dims.self_share",
    "combinat.orbits.self_share",
    "combinat.quotient.self_share",
    "rroch.self_share",
    "toeplitz.self_share",
    "symrep.self_share",
    "cli.main.self_share",
    "cli.case.self_share",
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def install(self) -> None:
        for (module_name, attr), spec in WRAPS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, *spec))
        cli = importlib.import_module("hilbtaut.cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:
            wrap = self._wrap

            class TracedPool(pool):
                def submit(self, fn, /, *args, **kwargs):
                    return super().submit(
                        wrap(fn, "cli.case", None, None), *args, **kwargs)

            cli.ThreadPoolExecutor = TracedPool

    def _wrap(self, fn, name, prepare, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            elif thread != self._main and self._stacks.get(self._main):
                parent = self._stacks[self._main][-1]
            else:
                parent = None
            span = {"name": name, "parent": parent, "thread": thread,
                    "counts": {}}
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            span["start"] = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["cpu"] = time.thread_time() - cpu
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer counts of every span recorded so far, and self times
        as shares of ``pass_s``."""
        child_cpu = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span["parent"]
            if parent is not None and self.spans[parent]["thread"] == span["thread"]:
                child_cpu[parent] += span["cpu"]
        out = {name: 0 for name in COUNT_METRICS + RATIO_METRICS}
        out.update({name: 0.0 for name in SHARE_METRICS})
        out["trace.spans"] = len(self.spans)
        for sid, span in enumerate(self.spans):
            name = span["name"]
            _add(out, f"{name}.self_share", (span["cpu"] - child_cpu[sid]) / pass_s)
            _add(out, f"{name}.calls", 1)
            for key, value in span["counts"].items():
                _add(out, f"{name}.{key}", value)
            if name == "tautops.kernel_nullity":
                mode = "invariant" if span["counts"]["invariant"] else "full"
                out[f"{name}.{mode}_share"] += span["cpu"] / pass_s
        rows = out["linalg.sparse_int_rank.rows"]
        if rows:
            out["linalg.sparse_int_rank.useful_ratio"] = (
                out["linalg.sparse_int_rank.rank"] / rows)
        return out


def _add(out: dict, key: str, value) -> None:
    if key in out:
        out[key] += value
