"""Regression corpus: the stdout and exit code of a fixed set of command lines.

    python tests/corpus.py --check    # list every entry whose output moved, with its ulp distance
    python tests/corpus.py --update   # rewrite corpus.json from the package on the path

The command lines run in-process through ``condorcet.cli.main``, in a
temporary directory that holds the culture files they name: random and
order-reversal-symmetric (dual) cultures at m = 3-8, drawn from Python's
``random`` so that no numpy stream shapes them, the 27 three-candidate sign
patterns and a few malformed files. Where a line writes ``--out``, the file's
text is recorded as its output. Numbers are compared within ``MAX_ULPS``
(BLAS differs across hosts), everything else exactly. An entry with
``--seed`` is a Monte Carlo entry and records the numpy version beside its
output; under another numpy a change there is reported as a possible change
of numpy's streams, not as a regression. ``--check`` exits 1 when an entry
moved beyond the tolerance.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from condorcet import TABLE1, order_index, pair_signs, sign_pattern_culture
from condorcet import cli
from examples import CASE7, CASE17

CORPUS = Path(__file__).with_name("corpus.json")
MAX_ULPS = 4
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
FORMATS = ("table", "csv", "json")


def _rows(m: int, probs) -> list[str]:
    keys = ("-".join(map(str, o)) for o in itertools.permutations(range(m)))
    return [f"{k},{p!r}" for k, p in zip(keys, probs)]


def _write(path: Path, m: int, probs) -> None:
    path.write_text("order,prob\n" + "".join(row + "\n" for row in _rows(m, probs)))


def _random_probs(m: int, seed: int, dual: bool) -> list[float]:
    orders = list(itertools.permutations(range(m)))
    rng = random.Random(seed)
    weights = [rng.random() for _ in orders]
    if dual:  # w + its reversal's w: both orders of a pair get the same float
        index = {o: k for k, o in enumerate(orders)}
        weights = [w + weights[index[o[::-1]]] for w, o in zip(weights, orders)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _support_probs(m: int, s: int, seed: int) -> list[float]:
    """Random weights on s of the m! orders, drawn as in :func:`_random_probs`, zero on the others."""
    rng = random.Random(seed)
    chosen = set(rng.sample(range(math.factorial(m)), s))
    weights = [rng.random() if k in chosen else 0.0 for k in range(math.factorial(m))]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _mixed_probs() -> list[float]:
    """A dual m = 5 culture plus the minimum-norm shift to lambda_03 = lambda_04 = -0.1, other margins 0.

    Candidate 0's term is forced to 0, candidates 3 and 4 keep three balanced rivals (closed forms)
    and 1 and 2 four (Monte Carlo), so the draw reads 7 of the joint matrix's 8 rows. The smallest
    probability is 5.8e-4.
    """
    coeffs = pair_signs(5).T.astype(float)  # columns (0,3) and (0,4) are 2 and 3
    target = np.zeros(10)
    target[[2, 3]] = -0.1
    return (np.array(_random_probs(5, 7, dual=True)) + coeffs.T @ np.linalg.solve(coeffs @ coeffs.T, target)).tolist()


def _rank_deficient_probs() -> list[float]:
    """Four m = 5 orders and their reversals: the ten margins span four dimensions."""
    probs = [0.0] * 120
    for weight, order in zip((0.1, 0.2, 0.3, 0.4), [(0, 1, 2, 3, 4), (1, 3, 0, 4, 2), (2, 0, 4, 1, 3), (3, 4, 1, 0, 2)]):
        probs[order_index(order)] = probs[order_index(order[::-1])] = weight / 2
    return probs


def write_cultures(folder: Path) -> None:
    """The culture files that the corpus's command lines name."""
    for m in range(3, 9):
        _write(folder / f"dual{m}.csv", m, _random_probs(m, m, dual=True))
    for m in (3, 4, 5):
        _write(folder / f"rand{m}.csv", m, _random_probs(m, 100 + m, dual=False))
    _write(folder / "support4.csv", 4, _support_probs(4, 8, 48))
    _write(folder / "mixed5.csv", 5, _mixed_probs())
    _write(folder / "deficient5.csv", 5, _rank_deficient_probs())
    rows = ["order,prob", *_rows(5, _random_probs(5, 105, dual=False))]  # rand5.csv in three other layouts
    (folder / "shuffled5.csv").write_text("\n".join(rows[:1] + random.Random(5).sample(rows[1:], 120)) + "\n")
    (folder / "crlf5.csv").write_bytes(("\r\n\r\n".join(rows) + "\r\n").encode())
    (folder / "quoted5.csv").write_text("".join(f'"{row.replace(",", chr(34) + "," + chr(34))}"\n' for row in rows))
    (folder / "rand4.json").write_text(json.dumps({"m": 4, "probs": _random_probs(4, 7, dual=False)}))
    for row in TABLE1:
        _write(folder / f"sign{row.number}.csv", 3, sign_pattern_culture(row.signs).probs.tolist())
    _write(folder / "case7.csv", 3, CASE7.probs.tolist())
    _write(folder / "case17.csv", 3, CASE17.probs.tolist())
    (folder / "negative.csv").write_text("order,prob\n0-1,-0.5\n1-0,1.5\n")
    _write(folder / "one3.csv", 3, [1.0, 0, 0, 0, 0, 0])
    (folder / "short.csv").write_text("order,prob\n0-1-2,0.5\n0-2-1,0.5\n")
    (folder / "text.json").write_text('{"m": 2, "probs": ["a", 1.0]}')
    (folder / "sum.json").write_text('{"m": 2, "probs": [0.5, 0.6]}')


def command_lines() -> list[list[str]]:
    lines = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        for m in range(3, 9):
            lines += [["limit", "--culture", name, "--m", str(m), *f] for name in ("ic", "cyclic")]
            sampled = ["--samples", "2000", "--seed", "3"] if m >= 5 else []  # Monte Carlo terms from d = 4
            lines.append(["limit", "--culture", f"dc:dual{m}.csv", *sampled, *f])
        lines += [["limit", "--culture", "rand5.csv", "--samples", "3001", "--seed", "1", *f],
                  ["limit", "--culture", "rand4.json", "--tol", "0.05", *f]]
        lines += [["limit", "--culture", name, "--samples", "2000", "--seed", "3", *f]
                  for name in ("mixed5.csv", "deficient5.csv")]
        for number in range(1, 28):
            lines.append(["classify", "--culture", f"sign{number}.csv", *f])
            if fmt != "table":
                lines.append(["limit", "--culture", f"sign{number}.csv", *f])
        lines += [["classify", "--culture", name, *f] for name in ("case7.csv", "case17.csv", "rand3.csv")]
        lines += [["classify", "--culture", "ic", "--m", "3", "--tol", "0", *f],
                  ["exact", "--culture", "ic", "--m", "3", "--n", "8", *f],
                  ["exact", "--culture", "ic", "--m", "4", "--n", "4", "--mode", "weak", *f],
                  ["exact", "--culture", "cyclic", "--m", "5", "--n", "6", *f],
                  ["exact", "--culture", "rand4.json", "--n", "5", "--mode", "weak", *f],
                  ["exact", "--culture", "dual3.csv", "--n", "12", *f],
                  ["mc", "--culture", "ic", "--m", "3", "--n", "3,11,101", "--trials", "2000", "--seed", "1", *f],
                  ["mc", "--culture", "rand5.csv", "--n", "7,200", "--trials", "500", "--seed", "2",
                   "--mode", "weak", *f],
                  ["mc", "--culture", "ic", "--m", "8", "--n", "31", "--trials", "150", "--seed", "1", *f],
                  ["min-table", "--m", "3,4,5,10", "--n", "3-10,19,20,101", *f],
                  ["ic-curve", "--m", "2-25", *f],
                  ["audit", "--samples", "1e4", "--seed", "1", *f],
                  ["audit", "--samples", "6", "--seed", "0", *f]]
    lines += [["audit", "--samples", "10001", "--seed", "2", "--format", "csv"],
              ["audit", "--samples", "1", "--seed", "0", "--format", "csv"],
              ["limit", "--culture", "dual6.csv", "--samples", "1000", "--seed", "5", "--out", "out.json",
               "--format", "json"],
              ["culture", "--culture", "ic", "--m", "4", "--out", "ic4.csv"],
              ["culture", "--culture", "rand5.csv", "--out", "rand5.json"],
              ["culture", "--culture", "rand4.json", "--out", "copy.txt", "--format", "csv"],
              ["exact", "--culture", "ic", "--m", "3", "--n", "5"],
              # State keys of 16 bits (n = 15) and 32 bits (n = 16), a decode with no merge, wide keys
              # on both walks, and a tally above 2**31.
              ["exact", "--culture", "ic", "--m", "3", "--n", "15", "--mode", "weak", "--format", "json"],
              ["exact", "--culture", "ic", "--m", "3", "--n", "16", "--format", "json"],
              ["exact", "--culture", "cyclic", "--m", "5", "--n", "31", "--format", "json"],
              ["exact", "--culture", "support4.csv", "--n", "7", "--mode", "weak", "--format", "json"],
              ["exact", "--culture", "ic", "--m", "6", "--n", "2", "--format", "json"],
              ["exact", "--culture", "one3.csv", "--n", "3000000000", "--format", "json"],
              ["limit", "--culture", "sign14.csv", "--tol", "0.5", "--format", "json"]]
    for name in ("shuffled5.csv", "crlf5.csv", "quoted5.csv"):
        lines += [["exact", "--culture", name, "--n", "3", "--format", "json"],
                  ["mc", "--culture", name, "--n", "7,200", "--trials", "500", "--seed", "2", "--format", "json"],
                  ["limit", "--culture", name, "--samples", "3001", "--seed", "1", "--format", "json"]]
    errors = [["limit", "--culture", "ic"], ["limit", "--culture", "ic", "--m", "3", "--tol", "-1"],
              ["limit", "--culture", "ic", "--m", "3", "--seed", "-1"], ["limit", "--culture", "dc:rand4.csv"],
              ["limit", "--culture", "negative.csv"], ["limit", "--culture", "short.csv"],
              ["limit", "--culture", "text.json"], ["limit", "--culture", "sum.json"],
              ["limit", "--culture", "missing.csv"], ["limit", "--culture", "rand4.json", "--m", "5"],
              ["limit", "--culture", "one3.csv", "--tol", "1"], ["classify", "--culture", "ic", "--m", "4"],
              ["exact", "--culture", "ic", "--m", "5", "--n", "9"],
              ["exact", "--culture", "ic", "--m", "3", "--n", "0"],
              ["mc", "--culture", "ic", "--m", "3", "--n", "5", "--trials", "0"],
              ["mc", "--culture", "ic", "--m", "3", "--n", "5-3"], ["min-table", "--m", "3", "--n", "0"],
              ["ic-curve", "--m", "1"], ["audit", "--samples", "inf"], ["audit", "--samples", "100", "--seed", "-2"],
              ["culture", "--culture", "ic", "--m", "3", "--out", "no/such/dir.csv"], ["unknown"]]
    return lines + errors


def run(argv: list[str]) -> dict:
    """The entry of one command line, run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    text = out.getvalue() + (written.read_text() if written and written.exists() else "")
    entry = {"argv": argv, "exit": code, "stdout": text}
    if "--seed" in argv:
        entry["numpy"] = np.__version__
    return entry


def run_all() -> list[dict]:
    """The entries of all command lines, run in a temporary directory with the culture files."""
    with tempfile.TemporaryDirectory() as folder:
        here = os.getcwd()
        os.chdir(folder)
        try:
            write_cultures(Path(folder))
            return [run(argv) for argv in command_lines()]
        finally:
            os.chdir(here)


def _ordered(x: float) -> int:
    """The double's rank among the doubles: +0.0 is 0, -0.0 is -1, and neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF) - 1


def distance(expected: dict, actual: dict) -> float:
    """The largest ulp distance between the entries' numbers; inf when anything else differs."""
    old, new = expected["stdout"], actual["stdout"]
    if expected["exit"] != actual["exit"] or _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return math.inf
    pairs = zip(_NUMBER.findall(old), _NUMBER.findall(new))
    return max((abs(_ordered(float(a)) - _ordered(float(b))) for a, b in pairs if a != b), default=0)


def moved() -> list[tuple[dict, float]]:
    """Each corpus entry whose output moved at all, with its ulp distance."""
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    if [e["argv"] for e in entries] != command_lines():
        raise SystemExit(f"{CORPUS.name} lists other command lines than command_lines(); run --update")
    return [(e, d) for e, d in ((e, distance(e, a)) for e, a in zip(entries, run_all())) if d]


def regression(entry: dict, ulps: float) -> bool:
    """A move beyond the tolerance that a change of numpy's streams does not explain."""
    return ulps > MAX_ULPS and entry.get("numpy", np.__version__) == np.__version__


def main(args: list[str]) -> int:
    if args == ["--update"]:
        CORPUS.write_text("".join(json.dumps(e) + "\n" for e in run_all()))
        return 0
    if args != ["--check"]:
        print("usage: python tests/corpus.py --check | --update", file=sys.stderr)
        return 2
    failed = 0
    for entry, ulps in moved():
        failed += regression(entry, ulps)
        size = "text or exit code" if ulps == math.inf else f"{ulps} ulp"
        recorded = entry.get("numpy", np.__version__)
        stream = "" if recorded == np.__version__ else f" (recorded under numpy {recorded})"
        print(f"{size}{stream}: {' '.join(entry['argv'])}")
    print(f"{failed} moved beyond {MAX_ULPS} ulp")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
