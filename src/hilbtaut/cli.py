"""Command-line front end: batch chi tables, kernel and graded dimensions,
Toeplitz and representation queries, and the verification suites.

Machine-readable by default in spirit: every handler builds its json
payload, text lines and csv rows in one pass over its results and hands
them to _emit, which prints the --format asked for and returns the exit
code; enumeration orders are fixed by the library, and randomized sweeps
take an explicit seed which is echoed back in the output.  Verification
cases run one after another in this process and are reported sorted by
key, each with its own wall-clock seconds.  Identical invocations
produce identical bytes, with the one caveat that verification reports
carry those timings.

Every option and its default is declared once, in _build_parser; each
handler reads the parsed namespace, cfg, once _validate has parsed the
bundle vectors and made the range checks argparse cannot.  The
verification cases are the rows of one registry, _cases, which takes
the only option a case reads, --seed; the suite names --suite accepts
are read off its rows.

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(a one-line message; bad arguments, a bad HILBTAUT_MAX_MATRIX_ENTRIES and
exceeding the matrix entry cap count here, inside a verification case
too), 3 internal fault (the traceback goes to stderr), 141 when stdout is
closed early (128 + SIGPIPE, as a shell reports a reader that hung up).
A verification case fails only by raising AssertionError; any other
exception in a case, a ValueError included, is an internal fault.

A start loads argparse and the package's modules, which every command
needs, and nothing of the standard library that only some commands use:
json loads for --format json output (_emit) and for a surface model read
from a file (rroch.load_surface), fractions, with decimal and numbers,
when the recursion and reps suites compare rational constants
(linalg.scalar_multiple), and random in the chi-consistency suite.
Each is imported in the function that uses it, as traceback is in main.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from math import factorial

from .combinat import (
    orbits,
    quotient_A,
    quotient_A0,
    quotient_B,
    stabilizer_order,
)
from .linalg import bareiss_det, int_rank, leading_principal_minors
from .rroch import (
    BUILTIN_SURFACES,
    chi_graded_pieces_n2,
    chi_sym_power,
    chi_sym_power_n2,
    chi_sym_power_smallk,
    get_surface,
    load_surface,
)
from .symrep import antiinv_dims_R, rho_from_R
from .symrep import verify_omega, verify_sym_map
from .tautops import (
    EXPONENT_RULES,
    EntryCapError,
    _check_cap,
    _check_partitions,
    _max_entries,
    _print_limit,
    graded_dims,
    graded_totals,
    in_proven_range,
    kernel_nullity,
    verify_filtration,
    verify_invariant_local_formula,
    verify_recursion,
    verify_transition,
)
from .toeplitz import r_matrix, t_even, t_odd

FORMATS = ("text", "csv", "json")


class UsageError(Exception):
    """Bad parameters or config; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, not SystemExit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# small rendering helpers


def _vec_str(v) -> str:
    return ":".join(str(x) for x in v)


def _parse_vec(text: str) -> tuple[int, ...]:
    parts = text.replace(",", ":").split(":")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad bundle vector {text!r}; want ints joined by ':'")


def _series(dims) -> str:
    terms = []
    for q, c in enumerate(dims):
        if not c:
            continue
        if q == 0:
            terms.append(str(c))
        elif q == 1:
            terms.append(f"{c} t")
        else:
            terms.append(f"{c} t^{q}")
    return " + ".join(terms) if terms else "0"


def _emit(cfg, payload: dict, text_lines, csv_rows) -> int:
    """Print one result in cfg's format, json from payload, csv from
    rows of cells or text from lines, and return the exit code: 1 when
    payload reports ok false, else 0."""
    if cfg.fmt == "json":
        import json

        print(json.dumps(payload, indent=2))
    elif cfg.fmt == "csv":
        print("\n".join(",".join(map(str, row)) for row in csv_rows))
    else:
        print("\n".join(text_lines))
    return 0 if payload.get("ok", True) else 1


def _load(cfg):
    if cfg.surface in BUILTIN_SURFACES:
        return get_surface(cfg.surface)
    try:
        return load_surface(cfg.surface)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read surface model: {exc}; "
                         f"builtins: {sorted(BUILTIN_SURFACES)}")
    except OSError as exc:
        raise UsageError(f"cannot read surface model: {exc}")
    except (ValueError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        raise UsageError(f"bad surface model {cfg.surface!r}: {exc}")


def _require(cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _gate_range(cfg) -> bool:
    """Whether (n, k) is conjectural, outside the established range,
    which only --exploratory lets through."""
    conjectural = not in_proven_range(cfg.n, cfg.k)
    if conjectural and not cfg.exploratory:
        raise UsageError(
            f"(n, k) = ({cfg.n}, {cfg.k}) is outside the established range "
            "(n <= 2 or k <= 4); pass --exploratory to compute anyway"
        )
    return conjectural


# ---------------------------------------------------------------------------
# table commands


def _printable(value: int, name: str) -> int:
    """value, if the interpreter can convert it to a decimal string
    (tautops._print_limit)."""
    limit = _print_limit(value)
    if limit:
        raise UsageError(
            f"{name} has more than {limit} digits, the interpreter's limit "
            "for printing an integer"
        )
    return value


def cmd_chi(cfg) -> int:
    s = _load(cfg)
    graded = cfg.n == 2
    if graded:  # the gr row, one piece per partition (k - j, j), is a table too
        _check_cap(1, cfg.k // 2 + 1, _max_entries(), f"chi gr row (2,{cfg.k})")
    gr_names = [f"gr_{j}" for j in range(cfg.k // 2 + 1)] if graded else []
    rows, text_lines = [], []
    csv_rows = [["surface", "n", "k", "L", "A", "chi", *gr_names]]
    for L in cfg.L:
        for A in cfg.A:
            try:
                value = chi_sym_power(s, cfg.n, cfg.k, L, A)
            except ValueError as exc:
                raise UsageError(str(exc))
            chi = _printable(value, "chi")
            row = {
                "surface": s.name,
                "n": cfg.n,
                "k": cfg.k,
                "L": list(L),
                "A": list(A),
                "chi": chi,
            }
            line = (f"{s.name} n={cfg.n} k={cfg.k} "
                    f"L={_vec_str(L)} A={_vec_str(A)} chi={chi}")
            gr = []
            if graded:
                gr = [_printable(piece, name) for name, piece in
                      zip(gr_names, chi_graded_pieces_n2(s, cfg.k, L, A))]
                row["gr"] = gr
                line += " gr=" + _vec_str(gr)
            rows.append(row)
            text_lines.append(line)
            csv_rows.append([s.name, cfg.n, cfg.k, _vec_str(L), _vec_str(A), chi, *gr])
    return _emit(cfg, {"command": "chi", "rows": rows}, text_lines, csv_rows)


def cmd_kernel(cfg) -> int:
    conjectural = _gate_range(cfg)
    dims = list(kernel_nullity(cfg.n, cfg.k, cfg.max_degree, invariant=cfg.invariant))
    payload = {
        "command": "kernel",
        "n": cfg.n,
        "k": cfg.k,
        "max_degree": cfg.max_degree,
        "invariant": cfg.invariant,
        "cumulative": dims,
    }
    mode = "invariant" if cfg.invariant else "full"
    text = f"kernel n={cfg.n} k={cfg.k} {mode} cumulative by degree: {dims}"
    if conjectural:
        payload["conjectural"] = True
        text += " (conjectural)"
    header = ["n", "k", "invariant"] + [f"deg_{d}" for d in range(cfg.max_degree + 1)]
    row = [cfg.n, cfg.k, int(cfg.invariant), *dims]
    return _emit(cfg, payload, [text], [header, row])


def cmd_graded(cfg) -> int:
    conjectural = _gate_range(cfg)
    pieces = graded_dims(cfg.n, cfg.k, cfg.max_degree, exponent_rule=cfg.rule)
    totals = list(graded_totals(pieces))
    payload = {
        "command": "graded",
        "n": cfg.n,
        "k": cfg.k,
        "max_degree": cfg.max_degree,
        "rule": cfg.rule,
        "pieces": [],
        "totals": totals,
    }
    csv_rows = [["mu"] + [f"deg_{d}" for d in range(cfg.max_degree + 1)]]
    text_lines = [f"graded pieces n={cfg.n} k={cfg.k} rule={cfg.rule}"]
    for mu, dims in pieces.items():
        payload["pieces"].append({"mu": list(mu), "cumulative": list(dims)})
        csv_rows.append([_vec_str(mu), *dims])
        text_lines.append(f"  mu={_vec_str(mu)}: {list(dims)}")
    csv_rows.append(["total", *totals])
    text_lines.append(f"  total: {totals}")
    if conjectural:
        payload["conjectural"] = True
        text_lines.append("  (conjectural)")
    return _emit(cfg, payload, text_lines, csv_rows)


def cmd_toeplitz(cfg) -> int:
    if cfg.kind == "T":
        _require(cfg, "n", "m")
        _check_cap(cfg.m, cfg.m, _max_entries(), f"toeplitz T_{cfg.parity}({cfg.n}, {cfg.m})")
        matrix = t_even(cfg.n, cfg.m) if cfg.parity == "even" else t_odd(cfg.n, cfg.m)
        if cfg.show == "minors":
            value = [_printable(v, f"minor {i}") for i, v in
                     enumerate(leading_principal_minors(matrix), start=1)]
            cell = _vec_str(value)
        else:
            value = cell = _printable(bareiss_det(matrix), "det")
        payload = {"command": "toeplitz", "kind": "T", "parity": cfg.parity,
                   "n": cfg.n, "m": cfg.m, cfg.show: value}
        text = [f"T_{cfg.parity}({cfg.n}, {cfg.m}): {cfg.show} = {value}"]
        csv_rows = [["kind", "parity", "n", "m", cfg.show],
                    ["T", cfg.parity, cfg.n, cfg.m, cell]]
        return _emit(cfg, payload, text, csv_rows)
    _require(cfg, "l", "k", "j")
    # An empty shape passes, for r_matrix to refuse with its own message.
    rows, cols = cfg.k - cfg.l + 1, cfg.k - 2 * cfg.j + 1
    _check_cap(max(rows, 0), cols, _max_entries(), f"toeplitz R({cfg.l}, {cfg.k}, {cfg.j})")
    try:
        matrix = r_matrix(cfg.l, cfg.k, cfg.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    rank = int_rank(matrix)
    payload = {
        "command": "toeplitz",
        "kind": "R",
        "l": cfg.l,
        "k": cfg.k,
        "j": cfg.j,
        "rank": rank,
        "cols": len(matrix[0]),
    }
    text = [f"R({cfg.l}, {cfg.k}, {cfg.j}): rank = {rank} of {len(matrix[0])} columns"]
    csv_rows = [["kind", "l", "k", "j", "rank", "cols"],
                ["R", cfg.l, cfg.k, cfg.j, rank, len(matrix[0])]]
    return _emit(cfg, payload, text, csv_rows)


def cmd_reps(cfg) -> int:
    # one class polynomial per cycle type: a partition of k, at most k wide
    _check_partitions(cfg.k, cfg.k, _max_entries())
    full = antiinv_dims_R(cfg.k)
    rho = rho_from_R(full)
    payload = {
        "command": "reps",
        "k": cfg.k,
        "rho": {"dims": list(rho), "series": _series(rho)},
        "R": {"dims": list(full), "series": _series(full)},
    }
    text = [
        f"anti-invariants of wedge^q(V x rho_{cfg.k}): {_series(rho)}",
        f"anti-invariants of wedge^q(V x R_{cfg.k}): {_series(full)}",
    ]
    csv_rows = [
        ["summand", "dims"],
        ["rho", _vec_str(rho)],
        ["R", _vec_str(full)],
    ]
    return _emit(cfg, payload, text, csv_rows)


# ---------------------------------------------------------------------------
# verification suites

# Every case is one row (suite, key, check, args) of _cases; check(*args)
# returns a detail dict and raises AssertionError on failure, so a suite
# result is reproducible and sortable by key.


def _minors(family, n):
    # Entries depend on r - c alone, so family(n, m) is the leading m x m
    # block of family(n, 12) and its determinant is the m-th minor below.
    for m, d in enumerate(leading_principal_minors(family(n, 12)), 1):
        if d <= 0:
            raise AssertionError(f"nonpositive minor at n={n}, m={m}")
    return {"m_max": 12}


def _r_ranks(k):
    count = 0
    for j in range(1, k // 2 + 1):
        for l in range(0, 2 * j + 1):
            rank = int_rank(r_matrix(l, k, j))
            if rank != k - 2 * j + 1:
                raise AssertionError(f"rank drop at (l,k,j)=({l},{k},{j})")
            count += 1
        if r_matrix(2 * j, k, j) != t_even(j, k + 1 - 2 * j):
            raise AssertionError(f"R(2j,k,j) != T_even at (k,j)=({k},{j})")
    return {"rank_checks": count}


def _antiinv_dims(k):
    full = antiinv_dims_R(k)
    for name, dims, wants in (("rho", rho_from_R(full), {k - 1: k}),
                              ("R", full, {k - 1: k, k: 2 * k, k + 1: k})):
        for q, dim in enumerate(dims):
            if dim != wants.get(q, 0):
                raise AssertionError(f"{name}_{k} dim {dim} at q={q}, want {wants.get(q, 0)}")
    return {"q_max": 2 * k}


def _omega(k):
    verify_omega(k)
    return {}


def _sym_map(k):
    return {"constant": str(verify_sym_map(k))}


def _local(k):
    constants = verify_invariant_local_formula(k)
    values = set(constants.values())
    if len(values) != 1:
        raise AssertionError(f"local constants disagree at k={k}: {constants}")
    return {"constant": str(values.pop()), "operators": sorted(constants)}


def _chi_routes(seed, name, k):
    import random

    s = get_surface(name)
    rng = random.Random(f"{seed}:{name}:{k}")
    checks = 0
    for _ in range(25):
        L = tuple(rng.randrange(-4, 5) for _ in range(s.rank))
        A = tuple(rng.randrange(-4, 5) for _ in range(s.rank))
        two_point = chi_sym_power_n2(s, k, L, A)
        general = chi_sym_power_smallk(s, 2, k, L, A)
        if two_point != general:
            raise AssertionError(f"chi mismatch on {name}, k={k}, L={L}, A={A}: "
                                 f"{two_point} != {general}")
        checks += 1
    return {"checks": checks}


def _kernel_vs_graded(n, k, degree):
    report = verify_filtration(n, k, degree)
    kernel = list(report.invariant_nullities[-1])
    detail = {"max_degree": degree, "invariant": kernel,
              "graded_total": list(graded_totals(report.graded))}
    if n == k == 2:
        if kernel[:3] != [1, 5, 18]:
            raise AssertionError(f"spot vector off: {kernel[:3]}")
        detail["spot"] = kernel[:3]
    return detail


def _orbit_counts(n, k):
    order_h = factorial(k)
    order_gh = factorial(n) * order_h
    checked = 0
    for l in range(0, k + 1):
        found = {group: orbits(n, k, l, group) for group in ("H", "GxH")}
        for name, quotient, group in (("B", quotient_B, "H"), ("A", quotient_A, "GxH")):
            if len(quotient(k, l, n)) != len(found[group]):
                raise AssertionError(f"{name} count off at l={l}")
        for group, order in (("H", order_h), ("GxH", order_gh)):
            for rep, size in found[group]:
                if stabilizer_order(n, rep, group) * size != order:
                    raise AssertionError(f"{group} stabilizer off at l={l}")
        checked += len(found["H"]) + len(found["GxH"])
    return {"orbit_checks": checked}


def _listed():
    for k, want in ((3, [((2,), ()), ((1,), (1,))]),
                    (4, [((3,), ()), ((2, 1), ()), ((2,), (1,)), ((1,), (2,)), ((1,), (1, 1))])):
        if quotient_A0(k, 1, k + 1) != want:
            raise AssertionError(f"A0({k},1) summands off")
    return {"sets": 2}


def _cases(seed):
    """Every verification case, in the order they run: suite by suite,
    one row (suite, key, check, args) each.  Only the rows are built
    here; _run_cases calls the checks."""
    for n in range(1, 7):
        yield "toeplitz", f"even minors n={n}", _minors, (t_even, n)
        yield "toeplitz", f"odd dets n={n}", _minors, (t_odd, n)
    for k in range(2, 13):
        yield "toeplitz", f"R ranks k={k}", _r_ranks, (k,)
    for k in range(1, 8):
        yield "reps", f"anti-invariant dims k={k}", _antiinv_dims, (k,)
    for k in range(2, 7):
        yield "reps", f"omega recursion k={k}", _omega, (k,)
    for k in (2, 3, 4):
        yield "reps", f"sym map k={k}", _sym_map, (k,)
    yield "recursion", "difference recursion l<=8", verify_recursion, ()
    yield "recursion", "rescaling transition l<=4", verify_transition, ()
    for k in (3, 4):
        yield "recursion", f"local formulas k={k}", _local, (k,)
    for name in sorted(BUILTIN_SURFACES):
        for k in (3, 4):
            yield "chi-consistency", f"chi routes {name} k={k}", _chi_routes, (seed, name, k)
    for n, k, degree in ((2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 3, 3), (3, 4, 3)):
        yield "kernel-vs-graded", f"kernel=graded n={n} k={k}", _kernel_vs_graded, (n, k, degree)
    for n in range(1, 5):
        for k in range(1, 6):
            yield "combinatorics", f"orbit counts n={n} k={k}", _orbit_counts, (n, k)
    yield "combinatorics", "listed summand sets", _listed, ()


def _run_cases(cases):
    """Run every (key, check, args) case in turn, timing each, and report
    sorted by case key.

    A case fails by raising AssertionError; the entry cap and internal
    faults propagate to main."""
    results = []
    for key, check, args in cases:
        start = time.perf_counter()
        try:
            detail = check(*args)
            ok = True
        except AssertionError as exc:
            detail = {"error": str(exc)}
            ok = False
        results.append((key, ok, detail, time.perf_counter() - start))
    results.sort(key=lambda r: r[0])
    return results


def cmd_verify(cfg) -> int:
    results = _run_cases((f"{suite}: {key}", check, args)
                         for suite, key, check, args in _cases(cfg.seed)
                         if cfg.suite in ("all", suite))
    passed = sum(ok for _, ok, _, _ in results)
    failed = len(results) - passed
    entries, text, csv_rows = [], [], [["key", "status", "seconds"]]
    for key, ok, detail, sec in results:
        status = "pass" if ok else "fail"
        entries.append({"key": key, "status": status, "seconds": round(sec, 3), **detail})
        line = f"{status.upper()} {key} ({sec:.3f}s)"
        if not ok:
            line += f" :: {detail.get('error', '')}"
        text.append(line)
        csv_rows.append([key.replace(",", ";"), status, f"{sec:.3f}"])
    text.append(
        f"suite {cfg.suite} [seed {cfg.seed}]: {passed} passed, {failed} failed"
    )
    payload = {
        "command": "verify",
        "suite": cfg.suite,
        "seed": cfg.seed,
        "cases": entries,
        "passed": passed,
        "failed": failed,
        "ok": failed == 0,
    }
    return _emit(cfg, payload, text, csv_rows)


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared
    by later ones: parsing leaves it as it was."""
    parser = _Parser(
        prog="hilbtaut",
        description="Exact tables and checks for symmetric powers of "
        "tautological bundles.",
    )
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format", default="text", choices=FORMATS, dest="fmt",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="Euler characteristic table",
                           parents=[fmt_parent])
    p_chi.add_argument("--surface", default="p2",
                       help="builtin name or JSON model path")
    p_chi.add_argument("--n", type=int, required=True)
    p_chi.add_argument("--k", type=int, required=True)
    p_chi.add_argument("--L", action="append", required=True,
                       help="line bundle class, ints joined by ':' "
                       "(repeatable; write a negative one as --L=-1:0)")
    p_chi.add_argument("--A", action="append", required=True,
                       help="twist class, same shape as --L "
                       "(repeatable; write a negative one as --A=-1:0)")

    size_parent = argparse.ArgumentParser(add_help=False)
    size_parent.add_argument("--n", type=int, required=True)
    size_parent.add_argument("--k", type=int, required=True)
    size_parent.add_argument("--max-degree", type=int, required=True)
    size_parent.add_argument("--exploratory", action="store_true")

    p_ker = sub.add_parser("kernel", help="cumulative kernel dimensions",
        parents=[fmt_parent, size_parent])
    group = p_ker.add_mutually_exclusive_group()
    group.add_argument("--invariant", action="store_true", default=True,
                       help="symmetric tuples only (default)")
    group.add_argument("--full", dest="invariant", action="store_false",
                       help="all tuples, no symmetry")

    p_gr = sub.add_parser("graded", help="graded piece dimensions",
       parents=[fmt_parent, size_parent])
    p_gr.add_argument("--rule", default="uniform_2m_mu", choices=EXPONENT_RULES)

    p_toe = sub.add_parser("toeplitz", help="banded binomial matrices",
        parents=[fmt_parent])
    p_toe.add_argument("--kind", default="T", choices=("T", "R"))
    parity = p_toe.add_mutually_exclusive_group()
    parity.add_argument("--even", dest="parity", action="store_const",
                        const="even", default="even")
    parity.add_argument("--odd", dest="parity", action="store_const",
                        const="odd")
    p_toe.add_argument("--n", type=int)
    p_toe.add_argument("--m", type=int)
    p_toe.add_argument("--l", type=int)
    p_toe.add_argument("--k", type=int)
    p_toe.add_argument("--j", type=int)
    what = p_toe.add_mutually_exclusive_group()
    what.add_argument("--det", dest="show", action="store_const",
                      const="det", default="det")
    what.add_argument("--minors", dest="show", action="store_const",
                      const="minors")

    p_reps = sub.add_parser("reps", help="anti-invariant dimension series",
         parents=[fmt_parent])
    p_reps.add_argument("--k", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run a verification suite",
        parents=[fmt_parent])
    suites = dict.fromkeys(suite for suite, *_ in _cases(0))
    p_ver.add_argument("--suite", default="all", choices=("all", *suites))
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sweeps (echoed in output)")
    return parser


def _validate(cfg: argparse.Namespace) -> None:
    """Parse --L and --A in place, then make the range checks argparse
    cannot; an option the subcommand lacks is skipped."""
    for name in ("L", "A"):
        if hasattr(cfg, name):
            setattr(cfg, name, [_parse_vec(v) for v in getattr(cfg, name)])
    # reps counts k from 1, every other --k from 0
    if cfg.command == "reps" and cfg.k < 1:
        raise UsageError("--k must be at least 1")
    for name in ("n", "k", "max_degree", "l", "j"):
        value = getattr(cfg, name, None)
        if value is not None and value < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative")
    # --n counts points here; toeplitz's T matrices take n = 0
    if cfg.command in ("chi", "kernel", "graded") and cfg.n == 0:
        raise UsageError("--n must be at least 1")
    if getattr(cfg, "m", None) is not None and cfg.m < 1:
        raise UsageError("--m must be at least 1")


_HANDLERS = {
    "chi": cmd_chi,
    "kernel": cmd_kernel,
    "graded": cmd_graded,
    "toeplitz": cmd_toeplitz,
    "reps": cmd_reps,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        cfg = _build_parser().parse_args(argv)
        _validate(cfg)
        try:
            _max_entries()
        except ValueError as exc:
            raise UsageError(str(exc))
        code = _HANDLERS[cfg.command](cfg)
        sys.stdout.flush()  # a reader gone by now is answered below too
        return code
    except (UsageError, EntryCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader hung up.  Stdout now writes to nowhere, so that the
        # interpreter's last flush of what is left cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        # Imported only on this path: it adds to every start-up otherwise.
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
