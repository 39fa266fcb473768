"""Command-line front end.

Subcommands: exact, mc, limit, classify, min-table, ic-curve, audit, culture.
Results go to stdout (or ``--out``) as a human-readable table on a terminal
and CSV when piped; ``--format {table,csv,json}`` overrides. The
``min-table`` table pivots the distinct n over the distinct m. Exit codes:
0 success, 1 computation error (enumeration budget, degenerate input,
failed audit), 2 usage error (including an ``--out`` that cannot be
written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .asymptotic import (
    DELTA_SIGN_TOL,
    DegenerateVarianceError,
    audit_table1,
    classify_m3,
    ic_curve,
    limiting_probability,
)
from .core import DEFAULT_SEED, WinnerMode
from .culture import (
    Culture,
    CultureFormatError,
    cyclic_minimizer_culture,
    impartial_culture,
    is_dual_culture,
    load_culture_file,
    save_culture,
)
from .exact import (
    DEFAULT_COMPOSITION_BUDGET,
    EnumerationBudgetError,
    exact_winner_probability,
    minimum_table,
)
from .montecarlo import mc_convergence_sweep
from .orthant import DEFAULT_MC_SAMPLES, CorrelationMatrixError

DEFAULT_TRIALS = 100_000


def load_culture(name_or_path: str, m: int | None = None) -> Culture:
    """Resolve a culture argument: ``ic``, ``cyclic``, ``dc:<path>``, or a file path.

    Named cultures require ``--m``. ``dc:<path>`` loads a file and rejects it
    unless every order and its reversal carry equal probability. Plain paths
    are read as JSON or CSV based on their suffix.
    """
    if name_or_path in ("ic", "cyclic"):
        if m is None:
            raise CultureFormatError(f"culture {name_or_path!r} requires --m")
        return impartial_culture(m) if name_or_path == "ic" else cyclic_minimizer_culture(m)
    if name_or_path.startswith("dc:"):
        culture = load_culture_file(name_or_path[3:])
        if not is_dual_culture(culture):
            raise CultureFormatError(
                f"{name_or_path[3:]}: probabilities are not symmetric under order reversal"
            )
    else:
        culture = load_culture_file(name_or_path)
    if m is not None and culture.m != m:
        raise CultureFormatError(f"culture has m={culture.m}, but --m {m} was given")
    return culture


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; ``a-b`` items expand to inclusive ranges."""
    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item[1:]:
            lo, hi = (int(x) for x in item.split("-", 1))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"reversed range {item!r} in {text!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(item))
    if not out:
        raise argparse.ArgumentTypeError(f"no integers in {text!r}")
    return out


def _parse_count(text: str) -> int:
    number = float(text)
    if not (number >= 1 and number.is_integer()):  # also rejects inf and nan
        raise argparse.ArgumentTypeError(f"count must be a finite whole number >= 1, got {text!r}")
    return int(number)


def _emit(args, rows: list[dict], lines: list[str], obj=None) -> None:
    """Write ``lines`` as the table, ``rows`` as CSV, or ``obj`` (else ``rows``) as JSON.

    The CSV header is the first row's keys, and each cell is ``str`` of its
    value, which is the shortest round-trip form for a float.
    """
    fmt = args.format
    if fmt is None:
        interactive = args.out is None and sys.stdout.isatty()
        fmt = "table" if interactive else "csv"
    if fmt == "table":
        payload = "".join(line + "\n" for line in lines)
    elif fmt == "csv":
        records = [rows[0].keys(), *(row.values() for row in rows)]
        payload = "".join(",".join(map(str, record)) + "\n" for record in records)
    else:
        payload = json.dumps(rows if obj is None else obj, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w") as handle:
            handle.write(payload)


def _cmd_exact(args) -> int:
    culture = load_culture(args.culture, args.m)
    result = exact_winner_probability(
        culture, args.n, WinnerMode(args.mode), budget=args.budget
    )
    obj = {
        "value": result.value,
        "method": result.method.value,
        "m": culture.m,
        "n": args.n,
        "mode": args.mode,
        "detail": result.detail,
    }
    _emit(args, [{"value": result.value}], [f"{result.value:.5f}"], obj)
    return 0


def _cmd_mc(args) -> int:
    culture = load_culture(args.culture, args.m)
    rows = [
        {"n": n, "estimate": r.value, "stderr": r.stderr, "trials": args.trials, "seed": args.seed}
        for n, r in mc_convergence_sweep(culture, sorted(args.n), args.trials, args.seed, WinnerMode(args.mode))
    ]
    lines = [f"n={r['n']}  {r['estimate']:.5f} (stderr {r['stderr']:.5f})" for r in rows]
    _emit(args, rows, lines)
    return 0


def _cmd_limit(args) -> int:
    culture = load_culture(args.culture, args.m)
    result = limiting_probability(culture, tol=args.tol, mc_samples=args.samples, mc_seed=args.seed)
    obj = {
        "value": result.value,
        "terms": result.detail["terms"],
        "case": result.detail.get("case"),
    }
    _emit(args, [{"value": result.value}], [f"{result.value:.5f}"], obj)
    return 0


def _cmd_classify(args) -> int:
    culture = load_culture(args.culture, args.m)
    case, value = classify_m3(culture, tol=args.tol)
    rows = [{"case": case, "probability": value}]
    _emit(args, rows, [f"case {case}: {value:.5f}"], {"case": case, "value": value})
    return 0


def _cmd_min_table(args) -> int:
    rows = minimum_table(args.m, args.n)
    cell = {(n, m): p for n, m, p in rows}
    ms = list(dict.fromkeys(args.m))
    lines = ["n    " + "".join(f"m={m:<8}" for m in ms)]
    for n in dict.fromkeys(args.n):
        lines.append(f"{n:<5}" + "".join(f"{cell[n, m]:<10.4f}" for m in ms))
    csv_rows = [
        {"n": n, "m": m, "probability": f"{p:.4f}", "probability_full": p} for n, m, p in rows
    ]
    obj = [{"n": n, "m": m, "probability": p} for n, m, p in rows]
    _emit(args, csv_rows, lines, obj)
    return 0


def _cmd_ic_curve(args) -> int:
    rows = [{"m": m, "probability": p} for m, p in ic_curve(args.m)]
    _emit(args, rows, [f"m={r['m']:<4} {r['probability']:.5f}" for r in rows])
    return 0


def _cmd_audit(args) -> int:
    results = audit_table1(samples=args.samples, seed=args.seed)
    rows = [
        {
            "case": r.number,
            "sign_01": r.signs[0],
            "sign_02": r.signs[1],
            "sign_12": r.signs[2],
            "formula": r.formula_value,
            "estimate": r.mc_value,
            "stderr": r.mc_stderr,
            "pass": int(r.passed),
        }
        for r in results
    ]
    lines = [
        f"case {r.number:>2}  formula {r.formula_value:.5f}  "
        f"mc {r.mc_value:.5f}  stderr {r.mc_stderr:.5f}  {'ok' if r.passed else 'MISMATCH'}"
        for r in results
    ]
    obj = [
        {
            "case": r.number,
            "signs": list(r.signs),
            "formula": r.formula_value,
            "estimate": r.mc_value,
            "stderr": r.mc_stderr,
            "pass": r.passed,
        }
        for r in results
    ]
    _emit(args, rows, lines, obj)
    return 0 if all(r.passed for r in results) else 1


def _cmd_culture(args) -> int:
    save_culture(load_culture(args.culture, args.m), args.out, fmt=args.format)
    return 0


def _add_common(parser, *, culture=False, out=True) -> None:
    if culture:
        parser.add_argument(
            "--culture",
            required=True,
            help="named culture (ic, cyclic, dc:<path>) or path to a JSON/CSV file",
        )
        parser.add_argument("--m", type=int, default=None, help="candidate count")
    if out:
        parser.add_argument("--out", default=None, help="write output to a file")
        parser.add_argument("--format", choices=("table", "csv", "json"), default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condorcet",
        description="Probability that a pairwise-majority winner exists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact probability by multinomial enumeration")
    _add_common(p, culture=True)
    p.add_argument("--n", type=int, required=True, help="number of voters")
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument(
        "--budget",
        type=_parse_count,
        default=DEFAULT_COMPOSITION_BUDGET,
        help="refuse when n voters have more vote-count compositions over the support than this; "
        "the order walk visits under twice that many states, and the voter walk (a few voters "
        "over more orders) expands at most n times that many",
    )
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("mc", help="Monte Carlo estimate (one or more voter counts)")
    _add_common(p, culture=True)
    p.add_argument("--n", type=_parse_int_list, required=True, help="voter counts, e.g. 11,101,1001")
    p.add_argument("--trials", type=_parse_count, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("limit", help="limiting probability as voters grow without bound")
    _add_common(p, culture=True)
    p.add_argument("--tol", type=float, default=DELTA_SIGN_TOL, help="margin sign tolerance")
    p.add_argument("--samples", type=_parse_count, default=DEFAULT_MC_SAMPLES,
                   help="Monte Carlo samples for orthant terms without closed form")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("classify", help="three-candidate table row and value")
    _add_common(p, culture=True)
    p.add_argument("--tol", type=float, default=DELTA_SIGN_TOL, help="margin sign tolerance")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("min-table", help="minimum winner probabilities over cultures")
    _add_common(p)
    p.add_argument("--m", type=_parse_int_list, required=True, help="candidate counts, e.g. 3,4,5,10")
    p.add_argument("--n", type=_parse_int_list, required=True, help="voter counts, e.g. 3-10,19,20")
    p.set_defaults(func=_cmd_min_table)

    p = sub.add_parser("ic-curve", help="uniform-culture limit against the candidate count")
    _add_common(p)
    p.add_argument("--m", type=_parse_int_list, required=True, help="candidate counts, e.g. 2-25")
    p.set_defaults(func=_cmd_ic_curve)

    p = sub.add_parser("audit", help="audit the 27-row classification table by simulation")
    _add_common(p)
    p.add_argument("--samples", type=_parse_count, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("culture", help="write a named or loaded culture to a file")
    _add_common(p, culture=True, out=False)
    p.add_argument("--out", required=True, help="destination file")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.set_defaults(func=_cmd_culture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationBudgetError, DegenerateVarianceError, CorrelationMatrixError) as exc:
        print(f"condorcet: {exc}", file=sys.stderr)
        return 1
    except (CultureFormatError, ValueError, OSError) as exc:
        print(f"condorcet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
