"""Rank orders over candidates and probability distributions (cultures) on them.

Candidates are the integers 0..m-1. A rank order is a tuple of all m
candidates, most preferred first, and the K = m! orders are indexed in
lexicographic sequence: an order's index is its Lehmer code read in the
factorial base. Every probability vector in this package is aligned with that
canonical indexing (index 0 is always (0, 1, ..., m-1)). Every method starts
from one (K, P) table, each order's +/-1 preference on each pair of
:func:`candidate_pairs` (:func:`pair_signs`).

Every integer argument of the public API (a candidate count, a candidate, a
voter or sample count, a seed, a budget) passes one rule,
:func:`integer_argument`: an int or numpy integer within the argument's range
is taken as an int, anything else raises ValueError.

Cultures are validated strictly: entries must be finite, non-negative and sum
to one within 1e-12. Inputs that fail are rejected, never renormalized, so data
errors surface at the boundary instead of being averaged away.

Cultures are saved as JSON or as CSV, one ``order,prob`` row per order keyed
by its candidates joined by hyphens (``0-2-1``). The CSV reader takes one of
two routes. The writer's own text (its header, one comma and one line end a
row, its keys in canonical sequence) is split in chunks of whole rows, checked
against one cached key text and parsed by ``float``. Any other text, or writer
text with a bad value or a row longer than a chunk, streams through one
``csv.reader`` row walk that builds the culture and raises at the first bad line.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Culture",
    "CultureFormatError",
    "candidate_pairs",
    "culture_from_csv",
    "culture_from_json",
    "culture_to_csv",
    "culture_to_json",
    "cyclic_minimizer_culture",
    "impartial_culture",
    "is_dual_culture",
    "load_culture_file",
    "order_index",
    "pair_signs",
    "save_culture",
]

MIN_CANDIDATES = 2
MAX_CANDIDATES = 8  # K = 8! = 40320, the largest order enumeration kept in memory
PROBABILITY_SUM_TOL = 1e-12
DUAL_TOL = 1e-12


class CultureFormatError(ValueError):
    """A culture file or probability vector failed validation."""


def integer_argument(value, name: str, low: int, high: float, rule: str) -> int:
    """``value`` as an int in [low, high), numpy integers too; else a ValueError.

    The one rule for every integer argument of the public API. Bools, floats
    and strings are not integers here; an out-of-range value's message says it
    must be ``rule``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= number < high:
        raise ValueError(f"{name} must be {rule}, got {number}")
    return number


def count_argument(value, name: str) -> int:
    """``value`` as a positive int, else a ValueError; as :func:`integer_argument`."""
    return integer_argument(value, name, 1, math.inf, ">= 1")


def seed_argument(value, name: str) -> int:
    """``value`` as an int in [0, 2**64), else a ValueError; as :func:`integer_argument`."""
    return integer_argument(value, name, 0, 2**64, "an unsigned 64-bit integer")


def candidate_count_argument(value) -> int:
    """``value`` as a candidate count m in [2, 8], else a ValueError; as :func:`integer_argument`."""
    return integer_argument(
        value, "candidate count", MIN_CANDIDATES, MAX_CANDIDATES + 1, f"in [{MIN_CANDIDATES}, {MAX_CANDIDATES}]"
    )


def _validate_order(order) -> tuple[int, ...]:
    order = tuple(order)
    m = candidate_count_argument(len(order))
    o = tuple(integer_argument(c, "candidate", 0, m, f"in [0, {m - 1}]") for c in order)
    if len(set(o)) != m:
        raise ValueError(f"not a permutation of 0..{m - 1}: {order!r}")
    return o


@lru_cache(maxsize=None)
def _order_array(m: int) -> np.ndarray:
    """All m! orders in canonical sequence as one cached, read-only (K, m) int8 array."""
    orders = itertools.chain.from_iterable(itertools.permutations(range(m)))
    array = np.fromiter(orders, np.int8, count=math.factorial(m) * m).reshape(-1, m)
    array.flags.writeable = False
    return array


def _lehmer_index(orders) -> np.ndarray:
    """Canonical index of each order in an (..., m) array: its Lehmer code, read in the factorial base."""
    orders, m = np.asarray(orders), np.shape(orders)[-1]
    # Digit i counts the later candidates ranked below the one at position i and is worth (m - 1 - i)!.
    worth = np.triu(np.array([[math.factorial(m - 1 - i)] * m for i in range(m)], dtype=np.intp), 1)
    return np.einsum("...ij,ij->...", orders[..., :, None] > orders[..., None, :], worth)


@lru_cache(maxsize=None)
def _key_text(m: int) -> str:
    """Each order's CSV key (its candidates joined by hyphens) and a comma, in canonical sequence, as one str."""
    # One ASCII row per order, digits at the even bytes: "0-1-...-7,".
    rows = np.full((math.factorial(m), 2 * m), ord("-"), np.uint8)
    np.add(_order_array(m), ord("0"), out=rows[:, 0::2], casting="unsafe")
    rows[:, -1] = ord(",")
    return str(rows.data, "ascii")


@lru_cache(maxsize=None)
def _order_key_map(m: int) -> dict[str, int]:
    """Index of each order by its CSV key."""
    return {key: i for i, key in enumerate(_key_text(m).split(",")[:-1])}


def order_index(order) -> int:
    """Canonical index of a rank order: its Lehmer code, its place in lexicographic sequence."""
    return int(_lehmer_index(_validate_order(order)))


@lru_cache(maxsize=None)
def _dual_permutation(m: int) -> np.ndarray:
    """The index of each order's reversal: a cached, read-only intp array."""
    dual = _lehmer_index(_order_array(m)[:, ::-1])
    dual.flags.writeable = False
    return dual


@lru_cache(maxsize=None, typed=True)
def candidate_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """The P = m(m-1)/2 pairs (i, j), i < j, in row-major order: (0, 1), (0, 2), ..., (m-2, m-1)."""
    m = candidate_count_argument(m)
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


@lru_cache(maxsize=None)
def pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only (m, m) maps: ``columns[i, j]``, the :func:`pair_signs` column of {i, j}, and ``sides[i, j]``.

    ``sides[i, j]`` is sign(j - i): +1 where i is the pair's first candidate, -1 where it is the second.
    """
    columns = np.zeros((m, m), dtype=np.intp)
    columns[np.triu_indices(m, 1)] = np.arange(m * (m - 1) // 2)
    maps = columns + columns.T, -np.sign(np.subtract.outer(range(m), range(m)))
    for a in maps:
        a.flags.writeable = False
    return maps


@lru_cache(maxsize=None, typed=True)
def pair_signs(m: int) -> np.ndarray:
    """The (K, P) int8 sign table: [k, p] is +1 where order k ranks pair p's first candidate higher, else -1.

    Pairs are those of :func:`candidate_pairs`. The table is cached, read-only
    and C-contiguous; cast it to int64 before scaling by vote counts.
    """
    # int8 throughout: the m = 8 table is 1.1 MB, one int64 copy would be 9 MB.
    first, second = np.array(candidate_pairs(m)).T  # candidate_pairs checks m
    positions = np.argsort(_order_array(m), axis=1).astype(np.int8)
    above = np.take(positions, first, axis=1) < np.take(positions, second, axis=1)  # C-ordered, unlike [:, first]
    signs = np.where(above, np.int8(1), np.int8(-1))
    signs.flags.writeable = False
    return signs


@dataclass(frozen=True)
class Culture:
    """Probability distribution over the m! rank orders of m candidates.

    ``probs[i]`` is the probability that a single voter casts the rank order
    with canonical index i. Instances are immutable and safe to share across
    threads; the underlying array is read-only.
    """

    m: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", candidate_count_argument(self.m))
        p = np.array(self.probs, dtype=float)
        k = math.factorial(self.m)
        if p.shape != (k,):
            raise CultureFormatError(
                f"expected {k} probabilities for m={self.m}, got shape {p.shape}"
            )
        if not np.all(p >= 0.0):
            bad = int(np.argmin(p))  # the first NaN if there is one
            raise CultureFormatError(
                f"negative or NaN probability {float(p[bad])!r} at order index {bad}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise CultureFormatError(
                f"probabilities sum to {total!r}, off by {total - 1.0:+.3e} "
                f"(tolerance {PROBABILITY_SUM_TOL:g}); inputs are not renormalized"
            )
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def support(self) -> np.ndarray:
        """Indices of rank orders carrying non-zero probability."""
        return np.nonzero(self.probs > 0.0)[0]


def impartial_culture(m: int) -> Culture:
    """The uniform culture: every rank order has probability 1/m!."""
    k = math.factorial(candidate_count_argument(m))
    return Culture(m, np.full(k, 1.0 / k))


def cyclic_minimizer_culture(m: int) -> Culture:
    """Mass 1/m on each cyclic rotation of (0, 1, ..., m-1), zero elsewhere.

    This culture minimizes the winner probability over all cultures for every
    number of voters.
    """
    m = candidate_count_argument(m)
    probs = np.zeros(math.factorial(m))
    probs[_lehmer_index(np.add.outer(range(m), range(m)) % m)] = 1.0 / m  # row s is the rotation by s
    return Culture(m, probs)


def is_dual_culture(culture: Culture) -> bool:
    """True when every rank order and its reversal carry equal probability."""
    dual = _dual_permutation(culture.m)
    return bool(np.all(np.abs(culture.probs - culture.probs[dual]) <= DUAL_TOL))


# ---------------------------------------------------------------------------
# Serialization. Both formats round-trip floats exactly (17 significant
# digits); the CSV order key is the candidate sequence joined by hyphens.
# ---------------------------------------------------------------------------


def culture_to_json(culture: Culture) -> str:
    return json.dumps({"m": culture.m, "probs": [float(p) for p in culture.probs]})


def culture_from_json(text: str) -> Culture:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CultureFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"m", "probs"}:
        raise CultureFormatError('expected a JSON object with keys "m" and "probs"')
    try:
        m = candidate_count_argument(obj["m"])
    except ValueError as exc:
        raise CultureFormatError(str(exc)) from None
    probs = obj["probs"]
    if not isinstance(probs, list):
        raise CultureFormatError('field "probs" must be a list of numbers')
    if set(map(type, probs)) - {int, float}:  # a string, null, bool or list
        k = next(k for k, p in enumerate(probs) if type(p) not in (int, float))
        raise CultureFormatError(f'field "probs": entry {k} must be a number, got {json.dumps(probs[k])}')
    try:
        probs = np.array(probs, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise CultureFormatError('field "probs" holds an integer too large for a float') from None
    return Culture(m, probs)


def culture_to_csv(culture: Culture) -> str:
    keys = _key_text(culture.m).split(",")  # one more than the orders: the text ends in a comma
    return "order,prob\n" + "".join([f"{key},{p:.17g}\n" for key, p in zip(keys, culture.probs.tolist())])


_CSV_HEADER = ["order", "prob"]
_NOT_A_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")
_CSV_CHUNK = 2**17  # characters of writer text split at a time
_M_OF_ROW_COUNT = {math.factorial(m): m for m in range(MIN_CANDIDATES, MAX_CANDIDATES + 1)}


def culture_from_csv(text: str) -> Culture:
    """Read the CSV of :func:`culture_to_csv`: a header ``order,prob``, then one row per order.

    The dialect is ``csv.reader``'s default: comma-separated, optionally
    double-quoted fields, LF or CRLF line ends. Blank lines are skipped,
    whitespace around a field is stripped, rows may come in any order, and a
    key may spell a candidate in any form ``int`` accepts (``1-00``). The first
    row's key sets m. Every row is checked; the first bad one is named by its
    line number.
    """
    # The writer's own text: its header, then rows of one key, one comma, one value and one LF or
    # CRLF, the keys in canonical sequence. It is read a chunk of whole rows at a time.
    m, start = _M_OF_ROW_COUNT.get(text.count("\n") - 1), text.find("\n") + 1
    if m is None or text[:start] not in ("order,prob\n", "order,prob\r\n"):
        return _culture_from_rows(text)
    keys, width, row = _key_text(m), 2 * m, 0
    probs = np.empty(math.factorial(m))
    # csv.reader refuses a field over its limit, and no such field fits in a chunk of whole rows.
    size = min(_CSV_CHUNK, csv.field_size_limit())
    while start < len(text):
        end = text.rfind("\n", start, start + size) + 1
        chunk = text[start:end].replace("\r\n", "\n")  # empty when no row ends within size characters
        rows = chunk.count("\n")
        separators = chunk.encode("utf-8", "surrogatepass").translate(None, _NOT_A_SEPARATOR)
        if not rows or "\r" in chunk or separators != b",\n" * rows:
            return _culture_from_rows(text)
        fields = chunk.replace("\n", ",").split(",")
        if ",".join(fields[0:-1:2]) != keys[row * width : (row + rows) * width - 1]:
            return _culture_from_rows(text)
        try:
            probs[row : row + rows] = np.array(fields[1::2], dtype=float)  # calls float() on each str
        except ValueError:  # float() keeps some whitespace that strip() drops, such as "\x1c"
            return _culture_from_rows(text)
        row, start = row + rows, end
    if probs.min() >= 0.0 and probs.max() < math.inf:  # NaN fails both
        return Culture(m, probs)
    return _culture_from_rows(text)


def _culture_from_rows(text: str) -> Culture:
    """The culture of ``csv.reader``'s rows, checked as they stream; the first bad row raises CultureFormatError.

    A bad row is named by its count of rows, from 1. A csv.Error anywhere in the text wins over a bad row.
    """
    rows = csv.reader(io.StringIO(text))
    try:
        try:
            header = next(rows, None)
            if header is None or [f.strip() for f in header] != _CSV_HEADER:
                raise CultureFormatError('expected CSV header "order,prob"')
            m, index = None, {}
            for lineno, row in enumerate(rows, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise CultureFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
                key, value = row[0].strip(), row[1].strip()
                idx = index.get(key)
                if idx is None:  # the first row, or a key the writer would not emit
                    where = f"line {lineno}, field 'order'"
                    try:
                        order = tuple(int(part) for part in key.split("-"))
                    except ValueError:
                        raise CultureFormatError(f"{where}: cannot parse {key!r}") from None
                    if m is not None and len(order) != m:
                        raise CultureFormatError(f"{where}: expected {m} candidates, got {len(order)}")
                    try:
                        idx = order_index(order)
                    except ValueError as exc:
                        raise CultureFormatError(f"{where}: {exc}") from None
                    if m is None:  # order_index checked that m is in range
                        m = len(order)
                        index, probs, seen = _order_key_map(m), np.empty(math.factorial(m)), bytearray(math.factorial(m))
                if seen[idx]:
                    raise CultureFormatError(f"line {lineno}: duplicate order key {key!r}")
                try:
                    prob = float(value)
                except ValueError:
                    raise CultureFormatError(f"line {lineno}, field 'prob': cannot parse {value!r}") from None
                if not 0.0 <= prob < math.inf:
                    if prob < 0.0:
                        raise CultureFormatError(f"line {lineno}, field 'prob': negative value {value}")
                    kind = "NaN" if math.isnan(prob) else "infinite"
                    raise CultureFormatError(f"line {lineno}, field 'prob': {kind} probability {prob!r}")
                probs[idx], seen[idx] = prob, 1
            if m is None:
                raise CultureFormatError("no culture rows found")
            if seen.count(1) != len(seen):
                raise CultureFormatError(f"expected {len(seen)} rows for m={m}, got {seen.count(1)}")
            return Culture(m, probs)
        except CultureFormatError:
            for _ in rows:  # a later csv.Error is the answer
                pass
            raise
    except csv.Error as exc:  # a lone CR inside a line, an overlong field
        raise CultureFormatError(f"line {rows.line_num}: {str(exc).split(' - ')[0]}") from None


def save_culture(culture: Culture, path, fmt: str | None = None) -> None:
    """Write a culture to ``path`` as JSON or CSV (inferred from the suffix)."""
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        path.write_text(culture_to_json(culture) + "\n")
    elif fmt == "csv":
        path.write_text(culture_to_csv(culture))
    else:
        raise ValueError(f"unknown culture format {fmt!r}")


def _file_text(path: Path) -> str:
    """The UTF-8 text of ``path``; its bytes are freed before the text is parsed."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CultureFormatError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CultureFormatError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def load_culture_file(path) -> Culture:
    """Read a culture from a JSON or CSV file (by suffix) written by :func:`save_culture`.

    The file is decoded as UTF-8, whatever the locale, and its text reaches :func:`culture_from_csv` or
    :func:`culture_from_json` as it is on disk, line ends included, so a file loads exactly when its
    text does: a CSV file with lone-CR line ends is refused. A byte that is not UTF-8 raises
    :class:`CultureFormatError` naming its line.
    """
    path = Path(path)
    text = _file_text(path)
    parse = culture_from_csv if path.suffix.lower() == ".csv" else culture_from_json
    try:
        return parse(text)
    except CultureFormatError as exc:
        raise CultureFormatError(f"{path}: {exc}") from None
