import csv
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condorcet import (
    Culture,
    CultureFormatError,
    candidate_pairs,
    correlation_matrix,
    culture_from_csv,
    culture_from_json,
    culture_to_csv,
    culture_to_json,
    cyclic_minimizer_culture,
    impartial_culture,
    is_dual_culture,
    lambda_matrix,
    limiting_probability,
    load_culture_file,
    order_index,
    pair_signs,
    save_culture,
)
import condorcet.culture as culture_module
from condorcet.culture import _dual_permutation, _order_key_map, pair_index
from conftest import random_culture, win_probability


def dual_order(order) -> tuple[int, ...]:
    """The reversal of a rank order."""
    return tuple(reversed(order))


def preference_sign(order, i: int, j: int) -> int:
    """+1 if candidate i is ranked above candidate j in the order, else -1."""
    return 1 if order.index(i) < order.index(j) else -1


def joint_preference_sign(order, i: int, j: int, l: int) -> int:
    """+1 if i beats both j and l, or loses to both, in the order; else -1."""
    return 1 if (order.index(i) < order.index(j)) == (order.index(i) < order.index(l)) else -1


class TestEnumeration:
    """The canonical sequence of the orders is itertools' lexicographic one; ``order_index`` reads it."""

    def test_m2(self):
        assert [order_index((0, 1)), order_index((1, 0))] == [0, 1]

    def test_m3(self):
        assert order_index((0, 1, 2)) == 0
        assert order_index((2, 1, 0)) == 5

    def test_m4_lexicographic(self):
        orders = sorted(itertools.permutations(range(4)))
        assert [order_index(o) for o in orders] == list(range(24))

    @pytest.mark.parametrize("m", [1, 0, 9, -2])
    def test_bounds(self, m):
        with pytest.raises(ValueError):
            impartial_culture(m)

    def test_order_index_roundtrip(self):
        for i, o in enumerate(itertools.permutations(range(4))):
            assert order_index(o) == i


class TestNamedCultures:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_impartial(self, m):
        c = impartial_culture(m)
        k = math.factorial(m)
        assert np.all(c.probs == 1.0 / k)

    def test_cyclic_m3(self):
        c = cyclic_minimizer_culture(3)
        expected = {(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3}
        for o, p in zip(itertools.permutations(range(3)), c.probs):
            assert p == pytest.approx(expected.get(o, 0.0), abs=0)

    def test_cyclic_m2_is_uniform(self):
        assert np.all(cyclic_minimizer_culture(2).probs == 0.5)

    def test_cyclic_m4_rotations(self):
        c = cyclic_minimizer_culture(4)
        orders = list(itertools.permutations(range(4)))
        support = [orders[i] for i in c.support()]
        assert len(support) == 4
        base = (0, 1, 2, 3)
        for o in support:
            shift = o[0]
            assert o == tuple((shift + k) % 4 for k in range(4))
            assert c.probs[order_index(o)] == 0.25


class TestDuality:
    def test_example(self):
        assert dual_order((0, 3, 2, 1)) == (1, 2, 3, 0)
        assert dual_order((0, 1)) == (1, 0)

    def test_involution_m4_exhaustive(self):
        orders = list(itertools.permutations(range(4)))
        for o, dual in zip(orders, _dual_permutation(4)):
            assert dual_order(dual_order(o)) == o
            assert orders[dual] == dual_order(o)

    @given(st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))))
    def test_involution_random(self, order):
        assert dual_order(dual_order(tuple(order))) == tuple(order)

    def test_impartial_is_dual(self):
        assert is_dual_culture(impartial_culture(3))
        assert is_dual_culture(impartial_culture(4))

    def test_cyclic_is_not_dual(self):
        # the reversal of (0, 1, 2) carries zero probability
        assert not is_dual_culture(cyclic_minimizer_culture(3))

    def test_symmetrized_culture_is_dual(self):
        p = np.zeros(6)
        p[order_index((0, 1, 2))] = 0.3
        p[order_index((2, 1, 0))] = 0.3
        p[order_index((1, 0, 2))] = 0.2
        p[order_index((2, 0, 1))] = 0.2
        assert is_dual_culture(Culture(3, p))


class TestPreferenceSigns:
    def test_examples(self):
        assert preference_sign((0, 1, 2), 0, 2) == 1
        assert preference_sign((2, 0, 1), 0, 2) == -1

    def test_antisymmetry_exhaustive_m3(self):
        for o in itertools.permutations(range(3)):
            for i, j in itertools.permutations(range(3), 2):
                assert preference_sign(o, i, j) == -preference_sign(o, j, i)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_half_the_orders_prefer_i(self, m):
        for i, j in itertools.permutations(range(m), 2):
            positives = sum(
                preference_sign(o, i, j) == 1 for o in itertools.permutations(range(m))
            )
            assert positives == math.factorial(m) // 2


    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_sign_table_matches_preference_sign(self, m):
        table = pair_signs(m)
        assert table.dtype == np.int8 and table.shape == (math.factorial(m), m * (m - 1) // 2)
        assert table.flags.c_contiguous and not table.flags.writeable
        assert candidate_pairs(m) == tuple(itertools.combinations(range(m), 2))
        for k, order in enumerate(itertools.permutations(range(m))):
            for p, (i, j) in enumerate(candidate_pairs(m)):
                assert table[k, p] == preference_sign(order, i, j)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_order_tables_match_itertools(self, m):
        orders = list(itertools.permutations(range(m)))
        array = culture_module._order_array(m)
        assert array.dtype == np.int8 and not array.flags.writeable
        assert array.tolist() == [list(o) for o in orders]
        assert culture_module._key_text(m) == "".join("-".join(map(str, o)) + "," for o in orders)
        positions = np.argsort(np.array(orders), axis=1)
        first, second = np.array(list(itertools.combinations(range(m), 2))).T
        expected = np.where(positions[:, first] < positions[:, second], 1, -1)
        assert np.array_equal(pair_signs(m), expected)
        index = {o: i for i, o in enumerate(orders)}
        assert np.array_equal(culture_module._lehmer_index(array), np.arange(len(orders)))
        dual = _dual_permutation(m)
        assert not dual.flags.writeable and dual.tolist() == [index[o[::-1]] for o in orders]
        rotations = [tuple((s + k) % m for k in range(m)) for s in range(m)]
        assert cyclic_minimizer_culture(m).support().tolist() == sorted(index[o] for o in rotations)

    def test_sign_tensor_peak_memory_at_m8(self):
        # 8! * 28 signs are 1.1 MB as int8; one int64 intermediate would be 9 MB. The order
        # array is built in the same window: it is generated as int8, never through tuples.
        tracemalloc.start()
        try:
            orders = culture_module._order_array.__wrapped__(8)
            signs = pair_signs.__wrapped__(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert orders.dtype == np.int8 and orders.shape == (40320, 8)
        assert signs.dtype == np.int8 and signs.shape == (40320, 28)
        assert peak < 6 * 2**20

    @pytest.mark.parametrize(
        "evaluate", [lambda_matrix, lambda c: correlation_matrix(c, 0), limiting_probability],
        ids=["lambda_matrix", "correlation_matrix", "limiting_probability"],
    )
    def test_limit_pass_peak_memory_at_m8(self, evaluate):
        # The limit pass casts the table to float a block of orders at a time: one float64 copy
        # of the whole m = 8 table would be 9 MB.
        culture = impartial_culture(8)
        pair_signs(8)
        tracemalloc.start()
        try:
            evaluate(culture)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestJointSign:
    def test_examples(self):
        assert joint_preference_sign((0, 1, 2), 0, 1, 2) == 1
        assert joint_preference_sign((1, 0, 2), 0, 1, 2) == -1

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_product_identity_exhaustive(self, m):
        for o in itertools.permutations(range(m)):
            for i, j, l in itertools.permutations(range(m), 3):
                assert joint_preference_sign(o, i, j, l) == preference_sign(
                    o, i, j
                ) * preference_sign(o, i, l)


class TestPairwiseWinProbability:
    """p_ij = (1 + lambda_ij) / 2 from ``lambda_matrix``, against the orders that rank i above j."""

    def test_impartial_is_even(self):
        lam = lambda_matrix(impartial_culture(3))
        for i, j in itertools.permutations(range(3), 2):
            assert (1.0 + lam[i, j]) / 2.0 == pytest.approx(0.5, abs=1e-15)

    def test_cyclic(self):
        c = cyclic_minimizer_culture(3)
        assert win_probability(c, 0, 1) == pytest.approx(2 / 3, abs=1e-15)
        assert (1.0 + lambda_matrix(c)[0, 1]) / 2.0 == pytest.approx(2 / 3, abs=1e-15)

    def test_degenerate(self):
        p = np.zeros(6)
        p[order_index((1, 2, 0))] = 1.0
        lam = lambda_matrix(Culture(3, p))
        assert lam[1, 0] == 1.0 and lam[0, 1] == -1.0

    def test_complementary(self, rng):
        c = random_culture(rng)
        for i, j in itertools.combinations(range(3), 2):
            assert win_probability(c, i, j) + win_probability(c, j, i) == pytest.approx(1.0, abs=1e-12)

    def test_m8_sums_the_orders_that_rank_i_above_j(self, rng):
        c = random_culture(rng, 8)
        lam = lambda_matrix(c)
        for i, j in [(0, 7), (7, 0), (3, 5), (6, 2)]:
            assert (1.0 + lam[i, j]) / 2.0 == pytest.approx(win_probability(c, i, j), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_pair_index_maps(self, m):
        columns, sides = pair_index(m)
        assert not columns.flags.writeable and not sides.flags.writeable
        for p, (i, j) in enumerate(candidate_pairs(m)):
            assert columns[i, j] == columns[j, i] == p and sides[i, j] == 1 and sides[j, i] == -1
        assert np.all(np.diag(sides) == 0)


class TestCultureValidation:
    def test_negative_rejected(self):
        p = np.full(6, 0.2)
        p[0] = -0.2
        p[1] = 0.4
        with pytest.raises(CultureFormatError, match="negative"):
            Culture(3, p)

    def test_bad_sum_rejected(self):
        with pytest.raises(CultureFormatError, match="sum"):
            Culture(3, np.full(6, 0.16))

    def test_nan_rejected(self):
        with pytest.raises(CultureFormatError, match="NaN probability .*nan"):
            Culture(3, [math.nan, 0.2, 0.2, 0.2, 0.2, 0.2])

    def test_wrong_length_rejected(self):
        with pytest.raises(CultureFormatError, match="expected 6"):
            Culture(3, np.full(5, 0.2))

    def test_immutable(self):
        c = impartial_culture(3)
        with pytest.raises(ValueError):
            c.probs[0] = 0.5


class TestSerialization:
    def test_json_roundtrip_bit_exact(self, rng):
        for _ in range(5):
            c = random_culture(rng, 3)
            back = culture_from_json(culture_to_json(c))
            assert back.m == c.m
            assert np.array_equal(back.probs, c.probs)

    def test_csv_roundtrip_bit_exact(self, rng):
        for m in (2, 3, 4):
            c = random_culture(rng, m)
            back = culture_from_csv(culture_to_csv(c))
            assert back.m == c.m
            assert np.array_equal(back.probs, c.probs)

    def test_csv_header(self):
        text = culture_to_csv(impartial_culture(2))
        assert text.splitlines()[0] == "order,prob"
        assert text.splitlines()[1].startswith("0-1,")

    def test_csv_non_canonical_key(self):
        # Keys the writer would not emit are parsed as integers.
        back = culture_from_csv("order,prob\n0-1,0.25\n1-00,0.75\n")
        assert back.probs.tolist() == [0.25, 0.75]
        with pytest.raises(CultureFormatError, match="line 3: duplicate order key '00-1'"):
            culture_from_csv("order,prob\n0-1,0.25\n00-1,0.75\n")

    def test_csv_duplicate_order(self):
        text = "order,prob\n0-1,0.5\n0-1,0.5\n"
        with pytest.raises(CultureFormatError, match="duplicate"):
            culture_from_csv(text)

    def test_csv_missing_orders(self):
        text = "order,prob\n0-1,1.0\n"
        with pytest.raises(CultureFormatError, match="expected 2 rows"):
            culture_from_csv(text)

    def test_csv_sum_deficit_named(self):
        text = "order,prob\n0-1,0.5\n1-0,0.499\n"
        with pytest.raises(CultureFormatError, match="0.999"):
            culture_from_csv(text)

    def test_csv_negative_named_line(self):
        text = "order,prob\n0-1,1.5\n1-0,-0.5\n"
        with pytest.raises(CultureFormatError, match="line 3"):
            culture_from_csv(text)

    def test_csv_bad_order_key(self):
        text = "order,prob\n0-x,0.5\n1-0,0.5\n"
        with pytest.raises(CultureFormatError, match="line 2"):
            culture_from_csv(text)

    def test_csv_nan_rejected(self):
        with pytest.raises(CultureFormatError, match="NaN probability .*nan"):
            culture_from_csv("order,prob\n0-1,nan\n1-0,1.0\n")

    def test_csv_nan_named_line(self):
        with pytest.raises(CultureFormatError, match=r"line 3, field 'prob': NaN probability nan"):
            culture_from_csv("order,prob\n0-1,1.0\n1-0,nan\n")

    def test_csv_inf_named_line(self):
        with pytest.raises(CultureFormatError, match=r"line 2, field 'prob': infinite probability inf"):
            culture_from_csv("order,prob\n0-1,inf\n1-0,0.0\n")

    def test_json_nan_rejected(self):
        with pytest.raises(CultureFormatError, match="NaN probability .*nan"):
            culture_from_json('{"m": 2, "probs": [NaN, 1.0]}')

    @pytest.mark.parametrize("entry", ['"a"', "null", "true", "[0.5]"], ids=["string", "null", "bool", "list"])
    def test_json_entry_must_be_a_number(self, entry):
        with pytest.raises(CultureFormatError, match=re.escape(f'"probs": entry 1 must be a number, got {entry}')):
            culture_from_json(f'{{"m": 2, "probs": [0.0, {entry}]}}')

    def test_json_integer_beyond_float_range(self):
        with pytest.raises(CultureFormatError, match="too large for a float"):
            culture_from_json('{"m": 2, "probs": [1' + "0" * 400 + ", 0]}")

    @pytest.mark.parametrize(
        "text, message",
        [("order,prob\r0-1,0.5\r1-0,0.5\r", "line 1: new-line character seen in unquoted field"),
         ('order,prob\n"' + "0" * 131_073 + '",0.5\n', r"line 2: field larger than field limit \(131072\)")],
        ids=["lone-cr", "long-field"],
    )
    def test_csv_reader_errors_are_format_errors(self, text, message):
        with pytest.raises(CultureFormatError, match=message):
            culture_from_csv(text)

    def test_json_schema_errors(self):
        with pytest.raises(CultureFormatError):
            culture_from_json("[1, 2]")
        with pytest.raises(CultureFormatError):
            culture_from_json('{"m": 3}')

    @pytest.mark.parametrize(
        "text, message",
        [("{", "invalid JSON: "), ('{"m": 2.0, "probs": [0.5, 0.5]}', "candidate count must be an integer, got 2.0"),
         ('{"m": 2, "probs": {"0-1": 1.0}}', 'field "probs" must be a list of numbers')],
        ids=["invalid", "float-m", "probs-not-a-list"],
    )
    def test_json_rejections(self, text, message):
        with pytest.raises(CultureFormatError, match=re.escape(message)):
            culture_from_json(text)

    @pytest.mark.parametrize(
        "text, message",
        [('"order","p"\n"0-1",0.5\n"1-0",0.5\n', 'expected CSV header "order,prob"'),
         ('order,prob\n"0-1",0.5,0\n"1-0",0.5\n', "line 2: expected 2 fields, got 3")],
        ids=["header", "three-fields"],
    )
    def test_quoted_csv_rejections(self, text, message):
        with pytest.raises(CultureFormatError, match=f"^{re.escape(message)}$"):
            culture_from_csv(text)

    @pytest.mark.parametrize(
        "name, data, byte",
        [("bad.csv", b"order,prob\n0-1,0.5\n1-0,0.\xff5\n", "0xff"),
         ("bad.json", b'{"m": 2,\n "probs": [0.5, 0.5],\n "note": "caf\xe9"}\n', "0xe9")],
        ids=["csv", "json-latin-1"],
    )
    def test_a_byte_that_is_not_utf8_is_a_format_error(self, name, data, byte, tmp_path):
        # Files are decoded as UTF-8 whatever the locale. A caller that catches CultureFormatError
        # sees the file and the line of the byte, not a bare UnicodeDecodeError.
        path = tmp_path / name
        path.write_bytes(data)
        try:
            load_culture_file(path)
        except CultureFormatError as exc:
            message = str(exc)
        assert message == f"{path}: line 3: byte {byte} is not UTF-8"

    def test_save_rejects_an_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown culture format 'xml'"):
            save_culture(impartial_culture(2), tmp_path / "c.xml", fmt="xml")
        assert not (tmp_path / "c.xml").exists()


def reference_culture_from_csv(text: str) -> Culture:
    """The row-by-row reader that ``culture_from_csv`` replaced, kept as its oracle."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a lone CR inside a line, an overlong field
        raise CultureFormatError(f"line {reader.line_num}: {str(exc).split(' - ')[0]}") from None
    if not rows or [f.strip() for f in rows[0]] != ["order", "prob"]:
        raise CultureFormatError('expected CSV header "order,prob"')
    m = None
    keys: dict[str, int] = {}  # the writer's key of every order, once m is known
    seen: dict[int, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise CultureFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
        key, value = row[0].strip(), row[1].strip()
        idx = keys.get(key)
        if idx is None:  # the first row, or a key the writer would not emit
            try:
                order = tuple(int(part) for part in key.split("-"))
            except ValueError:
                raise CultureFormatError(
                    f"line {lineno}, field 'order': cannot parse {key!r}"
                ) from None
            if m is None:
                m = len(order)
                if 2 <= m <= 8:
                    keys = _order_key_map(m)
            elif len(order) != m:
                raise CultureFormatError(
                    f"line {lineno}, field 'order': expected {m} candidates, got {len(order)}"
                )
            try:
                idx = order_index(order)
            except ValueError as exc:
                raise CultureFormatError(f"line {lineno}, field 'order': {exc}") from None
        if idx in seen:
            raise CultureFormatError(f"line {lineno}: duplicate order key {key!r}")
        try:
            prob = float(value)
        except ValueError:
            raise CultureFormatError(
                f"line {lineno}, field 'prob': cannot parse {value!r}"
            ) from None
        if prob < 0.0:
            raise CultureFormatError(f"line {lineno}, field 'prob': negative value {value}")
        if not math.isfinite(prob):
            kind = "NaN" if math.isnan(prob) else "infinite"
            raise CultureFormatError(f"line {lineno}, field 'prob': {kind} probability {prob!r}")
        seen[idx] = prob
    if m is None:
        raise CultureFormatError("no culture rows found")
    k = math.factorial(m)
    if len(seen) != k:
        raise CultureFormatError(f"expected {k} rows for m={m}, got {len(seen)}")
    probs = np.zeros(k)
    for idx, prob in seen.items():
        probs[idx] = prob
    return Culture(m, probs)


def _csv_text(rows, header="order,prob", eol="\n"):
    return eol.join([header, *rows]) + eol


_KEYS3 = ["-".join(map(str, o)) for o in itertools.permutations(range(3))]
_ROWS3 = [f"{key},{p}" for key, p in zip(_KEYS3, ["0.5", "0.25", "0.125", "0.0625", "0.03125", "0.03125"])]
_IC8 = culture_to_csv(impartial_culture(8))
_ROWS8 = _IC8.splitlines()[1:]
# The row that starts the writer route's second chunk of _IC8.
_CHUNK2 = _IC8.count("\n", 0, _IC8.rfind("\n", 0, len("order,prob\n") + culture_module._CSV_CHUNK))


def _replace(rows, at, row):
    return rows[:at] + [row] + rows[at + 1 :]


def _value8(at, value):
    """_IC8 with row ``at``'s value replaced."""
    return _csv_text(_replace(_ROWS8, at, _ROWS8[at].split(",")[0] + "," + value))


_ZEROS = "0" * (csv.field_size_limit() - len(_ROWS8[0].split(",")[1]))  # pads a value to the field limit


LOADABLE = {
    "canonical": _csv_text(_ROWS3),
    "no-final-newline": "\n".join(["order,prob", *_ROWS3]),
    "crlf": _csv_text(_ROWS3, eol="\r\n"),
    "crlf-no-final-newline": "\r\n".join(["order,prob", *_ROWS3]),
    "final-cr": "\n".join(["order,prob", *_ROWS3]) + "\r",
    "cr-crlf": _csv_text(_ROWS3, eol="\r\r\n"),
    "blank-lines": "order,prob\n\n" + "\n\n\n".join(_ROWS3) + "\n\n",
    "crlf-blank-lines": "order,prob\r\n\r\n" + "\r\n\r\n".join(_ROWS3) + "\r\n\r\n",
    "padded": _csv_text([f" {r.replace(',', chr(9) + ', ')}  " for r in _ROWS3], header=" order , prob\t"),
    "unicode-padded": _csv_text([f"\u2003{r.replace(',', chr(0xA0) + ',' + chr(0x1C))}\u3000" for r in _ROWS3]),
    "quoted": _csv_text([f'"{r.split(",")[0]}","{r.split(",")[1]}"' for r in _ROWS3], header='"order","prob"'),
    "quoted-crlf": _csv_text([f'"{r.split(",")[0]}",{r.split(",")[1]}' for r in _ROWS3], eol="\r\n"),
    "quoted-newline-in-key": _csv_text(_replace(_ROWS3, 0, '"0-1-2\n",0.5')),
    "shuffled": _csv_text(_ROWS3[::-1]),
    "shuffled-m8": _csv_text(_IC8.splitlines()[:0:-1]),
    "non-canonical-keys": "order,prob\n0-1,0.25\n1-00,0.75\n",
    "non-canonical-first-key": "order,prob\n+1-0_0,0.25\n0-1,0.75\n",
    "underscore-value": "order,prob\n0-1,0.2_5\n1-0,0.7_5\n",
    "exponents-and-negative-zero": "order,prob\n0-1,-0.0\n1-0,1e0\n",
    "writer-m2": culture_to_csv(Culture(2, [0.3, 0.7])),
    "writer-m5-dirichlet": culture_to_csv(random_culture(np.random.default_rng(5), 5)),
    "writer-m8-uniform": _IC8,
    "writer-m8-trailing-blank-line": _IC8 + "\n",
    "writer-m8-one-quoted-field": _IC8.replace("\n0-1-2-3-4-5-7-6,", '\n"0-1-2-3-4-5-7-6",'),
    "writer-m8-no-final-newline": _IC8[:-1],
    "writer-m2-value-at-field-limit": culture_to_csv(Culture(2, [0.25, 0.75])).replace(
        ",0.25\n", ",0.25" + "0" * (csv.field_size_limit() - 4) + "\n", 1
    ),
    "writer-m8-crlf": _IC8.replace("\n", "\r\n"),
    "writer-m8-value-at-field-limit": _value8(_CHUNK2, _ZEROS + _ROWS8[_CHUNK2].split(",")[1]),
}

REJECTED = {
    "empty": "",
    "header-only": "order,prob\n",
    "header-and-blank-lines": "order,prob\n\n\r\n\n",
    "wrong-header": _csv_text(_ROWS3, header="order,probability"),
    "blank-first-line": "\n" + _csv_text(_ROWS3),
    "one-field-row": _csv_text(_replace(_ROWS3, 2, "0-1-2")),
    "three-field-row": _csv_text(_replace(_ROWS3, 2, "1-0-2,0.125,x")),
    "whitespace-row": _csv_text(_ROWS3[:3] + ["  "] + _ROWS3[3:]),
    "three-then-one-field": _csv_text(["0-1-2,0.5,0-2-1", "0.25", *_ROWS3[2:]]),
    "one-then-three-fields": _csv_text(["0-1-2", "0.5,0-2-1,0.25", *_ROWS3[2:]]),
    "quoted-comma": _csv_text(_replace(_ROWS3, 1, '0-2-1,"0.25,0"')),
    "wrong-m-key": _csv_text(_replace(_ROWS3, 3, "0-1,0.0625")),
    "wrong-m-first-key": _csv_text(["0-1-2-3,0.5", *_ROWS3[1:]]),
    "non-permutation": _csv_text(_replace(_ROWS3, 4, "0-0-1,0.03125")),
    "key-underscore": "order,prob\n0-1,0.5\n1_0-0,0.5\n",
    "one-candidate": "order,prob\n0,1.0\n",
    "nine-candidates": "order,prob\n0-1-2-3-4-5-6-7-8,1.0\n",
    "unparseable-key": _csv_text(_replace(_ROWS3, 1, "0-x-1,0.25")),
    "empty-key": _csv_text(_replace(_ROWS3, 1, ",0.25")),
    "duplicate": _csv_text(_replace(_ROWS3, 5, _ROWS3[4])),
    "duplicate-non-canonical": "order,prob\n0-1,0.25\n00-1,0.75\n",
    "bad-value": _csv_text(_replace(_ROWS3, 2, "1-0-2,abc")),
    "empty-value": _csv_text(_replace(_ROWS3, 2, "1-0-2,")),
    "negative": _csv_text(_replace(_ROWS3, 2, "1-0-2,-0.125")),
    "nan": _csv_text(_replace(_ROWS3, 2, "1-0-2,nan")),
    "inf": _csv_text(_replace(_ROWS3, 2, "1-0-2,inf")),
    "minus-inf": _csv_text(_replace(_ROWS3, 2, "1-0-2,-inf")),
    "missing-rows": _csv_text(_ROWS3[:5]),
    "extra-row": _csv_text([*_ROWS3, "0-1-2,0.0"]),
    "sum-off": _csv_text(_replace(_ROWS3, 5, "2-1-0,0.03")),
    "lone-cr": "order,prob\r" + "\r".join(_ROWS3) + "\r",
    "lone-cr-before-value": _csv_text(_replace(_ROWS3, 2, "1-0-2,\r0.125")),
    "m8-negative-last-row": _IC8[: _IC8.rindex(",") + 1] + "-1e-9\n",
    "m8-missing-row": _IC8[: _IC8.rindex("\n", 0, -1) + 1],
    "m8-unfinished-extra-row": _IC8 + _ROWS8[0].split(",")[0],
    "writer-m2-overlong-value": culture_to_csv(impartial_culture(2)).replace(",0.5\n", ",0.5" + "0" * 140_000 + "\n", 1),
    "m8-three-then-one-field": _csv_text([f"{_ROWS8[0]},{_ROWS8[1].split(',')[0]}", _ROWS8[1].split(",")[1], *_ROWS8[2:]]),
    "m8-bad-value-second-chunk": _value8(_CHUNK2, "x"),
    "m8-negative-second-chunk": _value8(_CHUNK2, "-1e-9"),
    "m8-nan-second-chunk": _value8(_CHUNK2, "nan"),
    "m8-bad-value-last-row": _value8(-1, "x"),
    "m8-nan-last-row": _value8(-1, "nan"),
    "m8-value-over-one-chunk": _value8(_CHUNK2, "0" + _ZEROS + _ROWS8[_CHUNK2].split(",")[1]),
    "bad-value-then-lone-cr": _csv_text(_replace(_replace(_ROWS3, 1, "0-2-1,abc"), 4, "2-0-1,\r0.03125")),
    "m8-bad-value-then-lone-cr": _csv_text(_replace(_replace(_ROWS8, 0, _ROWS8[0] + "x"), -1, _ROWS8[-1].replace(",", ",\r"))),
}


def _outcome(parse, text):
    try:
        culture = parse(text)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)
    return culture.m, culture.probs


class TestCsvReaderAgainstRowLoop:
    @pytest.mark.parametrize("text", LOADABLE.values(), ids=LOADABLE.keys())
    def test_loads_what_the_row_loop_loads(self, text):
        m, probs = _outcome(reference_culture_from_csv, text)
        got_m, got_probs = _outcome(culture_from_csv, text)
        assert got_m == m
        assert np.array_equal(got_probs, probs)

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_rejects_what_the_row_loop_rejects(self, text):
        expected = _outcome(reference_culture_from_csv, text)
        assert isinstance(expected[0], type)
        assert _outcome(culture_from_csv, text) == expected


class TestCsvFileAgainstText:
    @pytest.mark.parametrize("text", [*LOADABLE.values(), *REJECTED.values()], ids=[*LOADABLE, *REJECTED])
    def test_a_file_loads_as_its_text(self, text, tmp_path):
        path = tmp_path / "culture.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(culture_from_csv, text)
        got = _outcome(load_culture_file, path)
        if isinstance(expected[0], type):
            assert got == (expected[0], f"{path}: {expected[1]}")
        else:
            assert got[0] == expected[0]
            assert np.array_equal(got[1], expected[1])


def _refuse(text):
    raise AssertionError("the row walk read the writer's own text")


class TestCsvRoutes:
    # Texts in LOADABLE and REJECTED that differ from the writer's own text by one edit.
    NEAR_WRITER = [
        "writer-m8-trailing-blank-line", "writer-m8-one-quoted-field", "writer-m8-no-final-newline",
        "m8-three-then-one-field", "m8-unfinished-extra-row", "m8-negative-last-row", "m8-missing-row",
        "writer-m2-overlong-value", "writer-m8-value-at-field-limit", "m8-bad-value-second-chunk",
        "m8-negative-second-chunk", "m8-nan-second-chunk", "m8-bad-value-last-row", "m8-nan-last-row",
        "m8-value-over-one-chunk",
    ]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_writer_text_takes_the_first_route(self, m, eol, rng, monkeypatch):
        culture = random_culture(rng, m)
        text = culture_to_csv(culture).replace("\n", eol)
        monkeypatch.setattr(culture_module, "_culture_from_rows", _refuse)
        assert np.array_equal(culture_from_csv(text).probs, culture.probs)

    @pytest.mark.parametrize("name", NEAR_WRITER)
    def test_near_writer_text_takes_the_row_walk(self, name, monkeypatch):
        text = {**LOADABLE, **REJECTED}[name]
        walked = []
        walk = culture_module._culture_from_rows
        monkeypatch.setattr(culture_module, "_culture_from_rows", lambda t: walked.append(t) or walk(t))
        _outcome(culture_from_csv, text)
        assert walked == [text]

    @pytest.mark.parametrize("text, bound", [(_IC8, 3), (LOADABLE["shuffled-m8"], 10)], ids=["writer", "shuffled"])
    def test_csv_load_peak_memory_at_m8(self, text, bound):
        # The writer's layout is split a chunk of rows at a time and any other layout streams
        # through csv.reader, so neither holds a string per field of the 1.6 MB text at once.
        culture_from_csv(text)  # the cached key text and key map are not part of a load
        tracemalloc.start()
        try:
            culture_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


@pytest.mark.parametrize("m", range(2, 9))
def test_csv_writer_bytes_match_csv_module(m, rng):
    for culture in (impartial_culture(m), random_culture(rng, m)):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["order", "prob"])
        for o, p in zip(itertools.permutations(range(m)), culture.probs):
            writer.writerow(["-".join(map(str, o)), format(p, ".17g")])
        assert culture_to_csv(culture).encode() == out.getvalue().encode()
