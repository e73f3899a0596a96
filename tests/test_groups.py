from __future__ import annotations

from math import gcd, prod

import numpy as np
import pytest

from grplab.counting import count_ap3
from grplab.errors import MalformedSpec, NotAGroup, NotPrimePower, OrderCapExceeded
from grplab import groups
from grplab.cyclic import CyclicGroup, _cyclic_digits, _cyclic_mul
from grplab.groups import (
    TABLE_CAP,
    Cyclic,
    DirectProduct,
    PSL2,
    build_group,
    conjugacy_classes,
    element_order,
    parse_group_spec,
)
from grplab.pointimage import PermutationGroup, PointImageGroup, PSL2Group
from grplab.tables import TableGroup, _require_associative, _require_latin_square, verify_group_axioms
from grplab.sets import make_set

from conftest import FLEET_SPECS, _dihedral_table, _gf_scalar_ops, fleet_group, traced_peak


# a Latin square with two-sided identity 0 that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_parse_grammar_round_trip():
    assert parse_group_spec("Z/5") == Cyclic(5)
    assert parse_group_spec("Z/2 x Z/3") == DirectProduct((Cyclic(2), Cyclic(3)))
    assert parse_group_spec("PSL2(9)") == PSL2(9)
    perm = parse_group_spec("perm:(1 2 3);(1 2)")
    assert str(perm) == "perm:(1 2 3);(1 2)"
    assert parse_group_spec("table:/tmp/x.csv").path == "/tmp/x.csv"


@pytest.mark.parametrize("bad", ["", "Z/", "Z/0", "PSL2()", "perm:", "perm:(1 1 2)", "Q/5"])
def test_malformed_specs(bad):
    with pytest.raises(MalformedSpec):
        parse_group_spec(bad)


def test_cyclic_group_orders():
    assert build_group("Z/5").order == 5
    g = build_group("Z/2 x Z/3")
    assert g.order == 6
    assert g.is_abelian


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_psl2_order_formula(q):
    g = build_group(f"PSL2({q})")
    assert g.order == q * (q * q - 1) // gcd(2, q - 1)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_psl2_order_matrix_enumeration_oracle(q):
    # independent oracle: enumerate 2x2 matrices over Z/q with det 1, then
    # quotient by +-identity
    mats = [
        (a, b, c, d)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
        if (a * d - b * c) % q == 1
    ]
    classes = set()
    for a, b, c, d in mats:
        neg = ((-a) % q, (-b) % q, (-c) % q, (-d) % q)
        classes.add(min((a, b, c, d), neg))
    assert build_group(f"PSL2({q})").order == len(classes)


@pytest.mark.parametrize("q", [6, 10, 12])
def test_psl2_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePower):
        build_group(f"PSL2({q})")


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group("Z/300000")
    build_group("Z/300000", order_cap=300000)
    with pytest.raises(OrderCapExceeded):
        build_group("perm:(1 2 3 4 5);(1 2)", order_cap=50)  # S5 has order 120


def test_product_cap_names_the_whole_order_before_any_factor_is_built():
    with pytest.raises(OrderCapExceeded, match=r"^group order 600000 exceeds cap 200000$"):
        build_group("Z/300000 x Z/2")


def test_element_labels_of_cyclic_groups_and_their_products():
    assert build_group("Z/2 x Z/3").element_label(4) == "(1,1)"
    z7 = build_group("Z/7")
    assert [z7.element_label(i) for i in range(7)] == [str(i) for i in range(7)]


def _digit_oracle(moduli, a, b):
    """Products in Z/m_1 x ... x Z/m_r by unravelling to digits, adding each
    digit mod its modulus and ravelling back."""
    a, b = np.broadcast_arrays(a, b)
    digits = [(x + y) % m for x, y, m in zip(np.unravel_index(a, moduli), np.unravel_index(b, moduli), moduli)]
    return np.ravel_multi_index(digits, moduli)


@pytest.mark.parametrize("moduli", [(3, 9, 27), (2, 1000), (2, 2, 50000), (400, 500), (1, 7)])
def test_cyclic_product_adds_digit_by_digit(moduli):
    g = build_group(" x ".join(f"Z/{m}" for m in moduli))
    rng = np.random.default_rng(len(moduli))
    a, b = rng.integers(0, g.order, size=(2, 20000))
    want = _digit_oracle(moduli, a, b)
    assert np.array_equal(g._mul_kernel(a, b), want)
    assert np.array_equal(g.mul_arrays(a, b), want)
    assert [g.mul(int(x), int(y)) for x, y in zip(a[:50], b[:50])] == want[:50].tolist()
    assert np.array_equal(g.mul_arrays(np.arange(g.order), g.inverse_table), np.zeros(g.order))
    assert g.cyclic_moduli == moduli
    # a column times a row, as in a pair block, and a Python int operand
    col, row = a[:300, None], b[None, :200]
    assert np.array_equal(g._mul_kernel(col, row), _digit_oracle(moduli, col, row))
    five = 5 % g.order
    assert np.array_equal(g.mul_arrays(five, a), _digit_oracle(moduli, five, a))
    assert np.array_equal(g._mul_kernel(a, five), _digit_oracle(moduli, a, five))


@pytest.mark.parametrize(
    "spec, moduli",
    [
        (DirectProduct((DirectProduct((Cyclic(2), Cyclic(3))), Cyclic(5))), (2, 3, 5)),
        (
            DirectProduct((DirectProduct((DirectProduct((Cyclic(2), Cyclic(3))), Cyclic(4))), Cyclic(5))),
            (2, 3, 4, 5),
        ),
        (
            DirectProduct((Cyclic(2), DirectProduct((Cyclic(3), DirectProduct((Cyclic(4), Cyclic(5))))))),
            (2, 3, 4, 5),
        ),
    ],
)
def test_nested_cyclic_products_add_digit_by_digit(spec, moduli):
    # a nested component spans several digits, so its stride is not theirs
    g = build_group(spec)
    assert g.cyclic_moduli == moduli
    idx = np.arange(g.order)
    want = _digit_oracle(moduli, idx[:, None], idx[None, :])
    assert np.array_equal(g._mul_kernel(idx[:, None], idx[None, :]), want)
    assert np.array_equal(g.mul_arrays(idx[:, None], idx[None, :]), want)
    assert [[g.mul(x, y) for y in range(g.order)] for x in range(g.order)] == want.tolist()


@pytest.mark.parametrize(
    "spec",
    [
        "Z/1 x Z/6",
        "Z/6 x Z/1",
        "Z/1 x Z/1",
        "Z/2 x Z/1 x Z/3",
        "Z/1 x Z/4 x Z/1 x Z/5 x Z/1",
        "Z/7 x Z/7",
        DirectProduct((Cyclic(1), DirectProduct((Cyclic(3), Cyclic(1), Cyclic(2))), Cyclic(4))),
    ],
)
def test_the_carry_rule_agrees_with_the_scalar_product_on_every_pair(spec):
    # the lower digits are settled first and the leading one by one compare
    # with n; Z/1 factors add no digit, so the leading digit is the first
    # modulus above 1
    g = build_group(spec)
    idx = np.arange(g.order)
    want = [[g.mul(x, y) for y in range(g.order)] for x in range(g.order)]
    assert g._mul_kernel(idx[:, None], idx[None, :]).tolist() == want
    assert [g._mul_kernel(idx, y).tolist() for y in range(g.order)] == [list(col) for col in zip(*want)]
    assert [g._mul_kernel(x, idx).tolist() for x in range(g.order)] == want


def test_the_cyclic_inverse_table_is_written_in_int32():
    # n - i for i > 0: only the table it keeps (0.76 MB; 3.05 MB traced
    # when it went through n-sized int64 temporaries)
    g, peak = traced_peak(lambda: CyclicGroup(200000))
    assert peak < 2**20, peak
    assert g.inverse_table.dtype == np.int32
    assert np.array_equal(g.inverse_table, -np.arange(g.order) % g.order)
    assert CyclicGroup(1).inverse_table.tolist() == [0]


@pytest.mark.parametrize(
    "spec",
    [
        DirectProduct((Cyclic(3), DirectProduct((Cyclic(4), Cyclic(1), Cyclic(5))), Cyclic(2))),
        DirectProduct((DirectProduct((Cyclic(2), Cyclic(2))), DirectProduct((Cyclic(1), Cyclic(9))))),
        "Z/1 x Z/6",
        "Z/1 x Z/1",
        "Z/2 x Z/1 x Z/3 x Z/1",
        DirectProduct((PSL2(5), Cyclic(3))),
        DirectProduct((Cyclic(2), DirectProduct((PSL2(5), Cyclic(1))), Cyclic(4))),
        DirectProduct((Cyclic(3), parse_group_spec("perm:(1 2 3 4);(1 2)"))),
    ],
)
def test_the_broadcast_inverse_table_inverts_each_component(spec):
    # the oracle takes each element apart into component indices and inverts
    # every component by its own scalar ``inv``
    g = build_group(spec)
    comps = g.components
    orders = [c.order for c in comps]
    parts = np.unravel_index(np.arange(g.order), orders)
    want = np.ravel_multi_index([[c.inv(int(x)) for x in part] for c, part in zip(comps, parts)], orders)
    assert g.inverse_table.dtype == np.int32
    assert g.inverse_table.shape == (g.order,)
    assert g.inverse_table.tolist() == want.tolist()
    assert all(g.mul(i, int(g.inverse_table[i])) == 0 for i in range(g.order))


def _digitwise(moduli, a, b):
    """The product in Z/m_1 x ... x Z/m_k, digit by digit."""
    da = np.unravel_index(np.asarray(a, dtype=np.int64), moduli)
    db = np.unravel_index(np.asarray(b, dtype=np.int64), moduli)
    return np.ravel_multi_index([(x + y) % m for x, y, m in zip(da, db, moduli)], moduli)


def _random_moduli(rng):
    """1 to 5 moduli: powers of two, 1s and others, order at most 2^22."""
    moduli = []
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(3)
        m = 1 if kind == 0 else 2 ** int(rng.integers(1, 8)) if kind == 1 else int(rng.integers(2, 300))
        if prod(moduli) * m <= 1 << 22:
            moduli.append(m)
    return tuple(moduli)


@pytest.mark.parametrize("seed", range(12))
def test_the_carry_rule_equals_the_digitwise_sum(seed):
    rng = np.random.default_rng(seed)
    moduli = _random_moduli(rng)
    n = prod(moduli)
    digits = _cyclic_digits(moduli)
    a, b = rng.integers(0, n, 500), rng.integers(0, n, 500)
    # sums that hit n and 2n - 2
    a = np.concatenate((a, [0, n - 1, n - 1, 1 % n]))
    b = np.concatenate((b, [0, n - 1, 1 % n, n - 1]))
    got = _cyclic_mul(digits, n, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digitwise(moduli, a, b)), moduli
    # int32 operands, as inverse tables hold them
    assert np.array_equal(_cyclic_mul(digits, n, a.astype(np.int32), b), got)
    # broadcast operands
    col, row = a[:40, None], b[None, :30]
    assert np.array_equal(_cyclic_mul(digits, n, col, row), _digitwise(moduli, col, row))
    # 0-d operands: Python ints, numpy scalars and 0-d arrays
    x, y = int(a[0]), int(b[0])
    want = int(_digitwise(moduli, x, y))
    for left, right in ((x, y), (np.int64(x), y), (np.array(x), np.array(y)), (x, np.int32(y))):
        assert int(_cyclic_mul(digits, n, left, right)) == want
    assert np.array_equal(_cyclic_mul(digits, n, x, b), _digitwise(moduli, x, b))


@pytest.mark.parametrize(
    "moduli",
    [
        (2, (1 << 29) - 1),  # int32 just below 2^30: 2n - 2 < 2^31
        (2, 1 << 29),  # 2^30, the first int64 order
        (3, 5, 71582789),  # just above 2^30: the sum needs int64
        (2, 1 << 30),  # 2^31
        (1 << 16, 1 << 16),  # 2^32
        (7, 1, 1000003, 999983),
    ],
)
def test_the_carry_rule_keeps_int64_for_large_orders(moduli):
    # an order cap this high admits these groups, but not their n-sized
    # tables here, so the rule is checked on its own
    n = prod(moduli)
    rng = np.random.default_rng(n % 1000)
    a = np.concatenate((rng.integers(0, n, 2000), [n - 1, n - 1, 0]))
    b = np.concatenate((rng.integers(0, n, 2000), [n - 1, 1, 0]))
    got = _cyclic_mul(_cyclic_digits(moduli), n, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digitwise(moduli, a, b))


@pytest.mark.parametrize("n", [1, 2, 200000])
def test_cyclic_kernel_wraps_at_the_modulus(n):
    # pairs whose sums are n - 1 (no wrap), n and 2n - 2 (the largest)
    g = build_group(f"Z/{n}")
    pairs = [
        (x, s - x)
        for s in (n - 1, n, 2 * n - 2)
        for x in sorted({s - n + 1, s // 2, n - 1})
        if 0 <= x < n and 0 <= s - x < n
    ]
    a, b = np.array(pairs).T
    want = (a + b) % n
    assert np.array_equal(g._mul_kernel(a, b), want)
    assert np.array_equal(g._mul_kernel(a[:, None], b[None, :]), (a[:, None] + b[None, :]) % n)
    assert [g.mul(int(x), int(y)) for x, y in pairs] == want.tolist()


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_identity_and_inverses(spec):
    g = fleet_group(spec)
    n = g.order
    for i in range(n):
        assert g.mul(0, i) == i
        assert g.mul(i, 0) == i
        assert g.mul(i, g.inv(i)) == 0
        assert g.mul(g.inv(i), i) == 0


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_group_axioms(spec):
    verify_group_axioms(fleet_group(spec))


def test_group_axioms_sampled_above_full_cap():
    # PSL2(11), order 660 <= TABLE_CAP, takes the exact path (Light's test)
    verify_group_axioms(build_group("PSL2(11)"))


def test_group_axioms_sample_triples_above_table_cap(monkeypatch):
    # with TABLE_CAP below its order, a fresh PSL2(5) has no table, so
    # verify_group_axioms checks sampled rows, columns and triples
    monkeypatch.setattr(groups, "TABLE_CAP", 10)
    g = build_group("PSL2(5)")
    verify_group_axioms(g, seed=3)
    assert g._table is None
    # x o y = x * sigma(y) keeps rows and columns permutations but is not
    # associative, which only the triple sample can see
    sigma = np.roll(np.arange(g.order), 1)
    kernel = g._mul_kernel
    monkeypatch.setattr(g, "_mul_kernel", lambda a, b: kernel(a, sigma[b]))
    with pytest.raises(NotAGroup, match="sampled triples"):
        verify_group_axioms(g, seed=3)


@pytest.mark.parametrize("q", [4, 9])
def test_psl2_prime_power_axioms(q):
    # q = p^k exercises the polynomial-product field tables end to end
    g = build_group(f"PSL2({q})")
    verify_group_axioms(g)
    cc = conjugacy_classes(g)
    assert cc.partition[0] == (0,)
    assert sum(cc.sizes()) == g.order


def test_scalar_and_vector_mul_agree(any_fleet_group):
    g = any_fleet_group
    n = g.order
    rng = np.random.default_rng(7)
    i = rng.integers(0, n, size=50)
    j = rng.integers(0, n, size=50)
    vec = g.mul_arrays(i, j)
    for a, b, c in zip(i.tolist(), j.tolist(), vec.tolist()):
        assert g.mul(a, b) == c


def test_coprime_product_is_cyclic():
    # Z/3 x Z/4 and Z/12 are isomorphic; element order multisets agree
    a = build_group("Z/3 x Z/4")
    b = build_group("Z/12")
    orders_a = sorted(element_order(a, i) for i in range(12))
    orders_b = sorted(element_order(b, i) for i in range(12))
    assert orders_a == orders_b
    assert 12 in orders_a


def test_element_orders():
    z6 = build_group("Z/6")
    assert element_order(z6, 0) == 1
    assert element_order(z6, 1) == 6
    assert element_order(z6, 2) == 3
    s3 = fleet_group("perm:(1 2 3);(1 2)")
    assert sorted(element_order(s3, i) for i in range(6)) == [1, 2, 2, 2, 3, 3]


def _conjugacy_oracle(g):
    # plain set-based conjugation orbits, independent of the library path
    seen = set()
    classes = []
    for x in range(g.order):
        if x in seen:
            continue
        orbit = {g.mul(g.mul(h, x), g.inv(h)) for h in range(g.order)}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


@pytest.mark.parametrize("spec", ["Z/6", "perm:(1 2 3);(1 2)", "perm:(1 2 3 4);(1 2)"])
def test_conjugacy_against_oracle(spec):
    g = fleet_group(spec)
    cc = conjugacy_classes(g)
    assert {frozenset(c) for c in cc.partition} == _conjugacy_oracle(g)


def test_conjugacy_classes_basics(any_fleet_group):
    g = any_fleet_group
    cc = conjugacy_classes(g)
    assert cc.partition[0] == (0,)
    assert sorted(i for c in cc.partition for i in c) == list(range(g.order))
    for c in cc.partition:
        assert g.order % len(c) == 0
    if g.is_abelian:
        assert cc.count == g.order


def test_conjugacy_s3_and_psl2_5(s3, psl2_5):
    assert sorted(conjugacy_classes(s3).sizes()) == [1, 2, 3]
    assert conjugacy_classes(psl2_5).count == 5


def test_cyclic4_classes_all_singletons():
    cc = conjugacy_classes(build_group("Z/4"))
    assert cc.sizes() == [1, 1, 1, 1]


def _orbit_loop_classes(g):
    # conjugation orbit of each least unclassified x, 2n products per class
    n = g.order
    all_g = np.arange(n, dtype=np.int64)
    inv_g = g.inverse_table.astype(np.int64)
    class_of = np.full(n, -1, dtype=np.int64)
    partition = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(g.mul_arrays(g.mul_arrays(all_g, x), inv_g))
        class_of[orbit] = len(partition)
        partition.append(tuple(int(v) for v in orbit))
    return tuple(partition), class_of


S3 = parse_group_spec("perm:(1 2 3);(1 2)")
_ORBIT_LOOP_CASES = [f"PSL2({q})" for q in (2, 3, 4, 5, 7, 8, 9, 11, 29, 49)] + [
    "perm:(1 2 3 4 5 6 7);(1 2)",
    "perm:(1 2 3 4 5 6 7 8);(1 2)",
    "D255",  # the dihedral table of order 510
    DirectProduct((S3, Cyclic(3))),
    DirectProduct((S3, Cyclic(200))),
]


@pytest.mark.parametrize("case", _ORBIT_LOOP_CASES, ids=str)
def test_conjugacy_classes_match_the_orbit_loop(case):
    g = TableGroup(_dihedral_table(255), case) if case == "D255" else build_group(case)
    cc = conjugacy_classes(g)
    partition, class_of = _orbit_loop_classes(g)
    assert cc.partition == partition
    assert cc.class_of.dtype == class_of.dtype == np.int64
    assert np.array_equal(cc.class_of, class_of)


def test_abelian_classes_take_no_product(monkeypatch):
    g = build_group("Z/50000")

    def refuse(*args):
        raise AssertionError("an abelian group's classes took a product")

    monkeypatch.setattr(g, "mul_arrays", refuse)
    monkeypatch.setattr(g, "_mul_kernel", refuse)
    cc = conjugacy_classes(g)
    assert cc.count == 50000
    assert set(cc.sizes()) == {1}
    assert np.array_equal(cc.class_of, np.arange(50000))


def test_classes_take_at_most_3n_products_per_generator(monkeypatch):
    # 2n per generator for the edges, n per generator to find the generators;
    # the per-class orbit loop took 2n * 600 = 1440000
    g = build_group(DirectProduct((S3, Cyclic(200))))
    n, gens = g.order, len(groups._generating_set(g))
    products = 0
    mul_arrays = g.mul_arrays

    def counted(a, b, *more):
        # a word of k factors is k - 1 products an entry
        nonlocal products
        products += np.broadcast(a, b, *more).size * (1 + len(more))
        return mul_arrays(a, b, *more)

    monkeypatch.setattr(g, "mul_arrays", counted)
    assert conjugacy_classes(g).count == 600
    assert 0 < products <= 3 * n * gens


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))


def test_table_group_reindexes_identity(tmp_path):
    # Z/3 written with elements relabeled so the identity is NOT at index 0
    relabel = [2, 0, 1]  # new_index_of[old]
    inverse = np.argsort(relabel)
    rows = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows[relabel[i]][relabel[j]] = relabel[(i + j) % 3]
    path = tmp_path / "z3.csv"
    _write_csv(path, rows)
    g = build_group(f"table:{path}")
    assert g.order == 3
    assert g.mul(0, 1) == 1 and g.mul(1, 2) == 0
    verify_group_axioms(g)


def test_table_group_rejects_bad_tables(tmp_path):
    p1 = tmp_path / "latin.csv"
    _write_csv(p1, [[0, 1], [0, 1]])
    with pytest.raises(NotAGroup):
        build_group(f"table:{p1}")

    p2 = tmp_path / "noid.csv"
    # Latin square without a two-sided identity: x*y = 2x + y mod 5
    _write_csv(p2, [[(2 * i + j) % 5 for j in range(5)] for i in range(5)])
    with pytest.raises(NotAGroup):
        build_group(f"table:{p2}")

    p3 = tmp_path / "loop.csv"
    _write_csv(p3, NONASSOC_LOOP)
    with pytest.raises(NotAGroup, match="associativity"):
        build_group(f"table:{p3}")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 0], [1, 1]], "some row is not a permutation"),
        ([[0, 1], [0, 1]], "some column is not a permutation"),
        ([[(i + j) % 5 if (i, j) != (3, 1) else 3 for j in range(5)] for i in range(5)],
         "some row is not a permutation"),
        ([[(i + j) % 5 for j in range(5)] if i != 2 else [1, 2, 3, 4, 0] for i in range(5)],
         "some column is not a permutation"),
    ],
    ids=["row-2", "column-2", "row-5", "column-5"],
)
def test_table_latin_square_messages(tmp_path, rows, message):
    path = tmp_path / "t.csv"
    _write_csv(path, rows)
    with pytest.raises(NotAGroup, match=f"^{message}$"):
        build_group(f"table:{path}")
    with pytest.raises(NotAGroup, match=f"^{message}$"):
        _require_latin_square(np.asarray(rows))
    _require_latin_square(np.add.outer(np.arange(5), np.arange(5)) % 5)


# the CSV reader's contract: exit 1 for a malformed entry, exit 2 for a table
# that is not square (row widths are checked first, so trailing commas make a
# table non-square); blank or all-whitespace lines, padding, quotes and CRLF
# are accepted
@pytest.mark.parametrize(
    "text, code",
    [
        ("0,1\n1,x\n", 1),
        ("0,1\n1,0.0\n", 1),
        ("0,1\n1,\xff\n", 1),
        ("0,1\n1\n", 2),
        ("0,1,2\n1,2,0\n", 2),
        ("0,1,\n1,0,\n", 2),
        ("0,1\n\n1,0\n", 0),
        ("0,1\n  \n1,0\n", 0),
        ("0,1\n1,0\n\n", 0),
        (" 0 , 1\n1 ,0 \n", 0),
        ('"0","1"\n1,0\n', 0),
        ("0,1\r\n1,0\r\n", 0),
    ],
    ids=["non-integer", "float", "not-utf8", "ragged", "non-square", "trailing-comma",
         "blank-line", "whitespace-line", "trailing-blank", "padded", "quoted", "crlf"],
)
def test_table_csv_error_contract(tmp_path, capsys, text, code):
    from grplab.cli import main

    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("latin-1"))
    assert main(["group", "--group", f"table:{path}"]) == code
    out = capsys.readouterr()
    if code == 0:
        assert '"order":2' in out.out.replace(" ", "")
    else:
        assert out.err.startswith("grplab: ")


def test_table_csv_error_types(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1\n1,x\n")
    with pytest.raises(MalformedSpec, match="non-integer entry"):
        build_group(f"table:{path}")
    path.write_text("0,1\n1\n")
    with pytest.raises(NotAGroup, match="table must be square"):
        build_group(f"table:{path}")
    path.write_bytes(b"0,1\n1,\xff\n")
    with pytest.raises(MalformedSpec, match="cannot read table file"):
        build_group(f"table:{path}")


def test_table_group_round_trip(tmp_path):
    src = build_group("Z/2 x Z/2")
    path = tmp_path / "klein.csv"
    _write_csv(path, src.table.tolist())
    g = build_group(f"table:{path}")
    assert g.order == 4
    assert all(g.mul(i, i) == 0 for i in range(4))


def _normalized_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))]
    cols = [{j} for j in range(n)]

    def extend(r):
        if r == n:
            yield np.array(rows)
            return
        row = [r]
        def fill(j):
            if j == n:
                rows.append(list(row))
                yield from extend(r + 1)
                rows.pop()
                return
            for v in range(n):
                if v not in row and v not in cols[j]:
                    row.append(v)
                    cols[j].add(v)
                    yield from fill(j + 1)
                    cols[j].discard(v)
                    row.pop()
        cols[0].add(r)
        yield from fill(1)
        cols[0].discard(r)

    yield from extend(1)


def _light_accepts(table):
    try:
        _require_associative(TableGroup(np.asarray(table, dtype=np.int32), "loop"))
    except NotAGroup as exc:
        assert "associativity" in str(exc)
        return False
    return True


def test_light_test_agrees_with_the_triple_scan_on_small_loops():
    loops = list(_normalized_latin_squares(4)) + list(_normalized_latin_squares(5))
    assert len(loops) == 4 + 56
    order6 = list(_normalized_latin_squares(6))
    assert len(order6) == 9408
    pick = np.random.default_rng(6).choice(len(order6), size=1500, replace=False)
    loops += [order6[i] for i in pick]
    verdicts = []
    for t in loops:
        brute = np.array_equal(t[t], t[:, t])  # (i*j)*k against i*(j*k)
        assert _light_accepts(t) == brute
        verdicts.append(brute)
    assert 0 < sum(verdicts) < len(verdicts)


def _swap_intercalate(table):
    """Swap the intercalate on rows x, x*s and columns y, s*y (x = r^5,
    y = r^7).  The involution s still has (x*s)*y == x*(s*y) for all x, y,
    and it is the first generator, so the second generator has to catch this."""
    t = table.copy()
    m = len(t) // 2
    rows = [10, 11]
    cols = [14, 2 * (m - 7) + 1]
    assert t[10, 14] == t[11, cols[1]] and t[10, cols[1]] == t[11, 14]
    t[np.ix_(rows, cols)] = t[np.ix_(rows, cols[::-1])]
    return t


def test_table_group_inverses():
    t = _dihedral_table(6)
    g = TableGroup(t.astype(np.int32), "d6")
    assert [int(t[i, g.inv(i)]) for i in range(12)] == [0] * 12
    with pytest.raises(NotAGroup, match="element 1 has 2 right inverses"):
        TableGroup(np.array([[0, 1, 2], [0, 2, 0], [2, 0, 1]], dtype=np.int32), "bad")


def test_light_test_accepts_a_dihedral_csv_of_order_1024(tmp_path):
    path = tmp_path / "d1024.csv"
    np.savetxt(path, _dihedral_table(512), fmt="%d", delimiter=",")
    g = build_group(f"table:{path}")
    assert g.order == 1024 and not g.is_abelian
    assert g.mul(1, 1) == 0 and g.mul(1, 2) == g.mul(g.inv(2), 1)  # s*r = r^-1*s


def test_light_test_rejects_one_swapped_intercalate(tmp_path, capsys):
    from grplab.cli import main

    t = _swap_intercalate(_dihedral_table(512))
    assert np.array_equal(t[0], np.arange(1024)) and np.array_equal(t[:, 0], np.arange(1024))
    path = tmp_path / "swapped.csv"
    np.savetxt(path, t, fmt="%d", delimiter=",")
    with pytest.raises(NotAGroup, match="associativity fails at generator"):
        build_group(f"table:{path}")
    assert main(["group", "--group", f"table:{path}"]) == 2
    assert "associativity" in capsys.readouterr().err


def test_light_test_swapped_intercalate_small_oracle():
    # the same swap in D_16 (order 32), against the triple scan
    t = _swap_intercalate(_dihedral_table(16))
    assert not np.array_equal(t[t], t[:, t])
    assert not _light_accepts(t)
    assert _light_accepts(_dihedral_table(16))


def test_group_axioms_need_the_identity_at_0_for_the_exact_test():
    # x o y = x - y mod 3 is a Latin square without an identity
    g = TableGroup(np.array([[(x - y) % 3 for y in range(3)] for x in range(3)], dtype=np.int32), "q")
    with pytest.raises(NotAGroup, match="identity"):
        verify_group_axioms(g)


def test_light_test_rejects_a_loop_whose_closure_does_not_double():
    # in NONASSOC_LOOP, 1*1 = 0: generator 1 closes on 2 elements, which
    # does not divide 5, so no subgroup of a group could be generated
    g = TableGroup(np.array(NONASSOC_LOOP, dtype=np.int32), "loop")
    with pytest.raises(NotAGroup, match=r"associativity fails: generators \[1\] close on 2 of 5"):
        _require_associative(g)


def test_determinism_same_spec_same_indexing():
    a = build_group("PSL2(5)")
    b = build_group("PSL2(5)")
    assert np.array_equal(a.inverse_table, b.inverse_table)
    assert np.array_equal(a.table, b.table)


def test_psl2_labels_identity():
    g = build_group("PSL2(7)")
    assert g.element_label(0) == "[[1,0],[0,1]]"


def test_group_above_table_cap_uses_keyed_lookup():
    # PSL2(23) has order 6072 > 4096, so no Cayley table is materialized and
    # multiplication goes through the point-image kernel and its per-level
    # index on the base, however many products the kernel has already evaluated
    g = build_group("PSL2(23)")
    assert g.order == 6072
    assert g.table is None
    g._kernel_products = g.order * g.order
    g.mul_arrays(np.arange(g.order), np.arange(g.order))
    assert g._table is None
    rng = np.random.default_rng(3)
    i = rng.integers(0, g.order, size=200)
    j = rng.integers(0, g.order, size=200)
    k = rng.integers(0, g.order, size=200)
    lhs = g.mul_arrays(g.mul_arrays(i, j), k)
    rhs = g.mul_arrays(i, g.mul_arrays(j, k))
    assert np.array_equal(lhs, rhs)
    inv = g.inverse_table.astype(np.int64)
    assert np.all(g.mul_arrays(i, inv[i]) == 0)
    assert g.mul(5, g.inv(5)) == 0


def test_direct_product_of_nonabelian_components():
    # reachable through the object API only; the grammar covers cyclic products
    spec = DirectProduct((PSL2(2), Cyclic(3)))
    g = build_group(spec)
    assert g.order == 18
    assert not g.is_abelian
    assert g.cyclic_moduli is None
    verify_group_axioms(g)
    cc = conjugacy_classes(g)
    assert cc.count == 9  # 3 classes of S3 times 3 singletons of Z/3


# the table cache: fresh groups, because fleet_group shares one instance
# (and so one cache state) across tests
CACHE_SPECS = FLEET_SPECS + ["PSL2(13)"]


@pytest.mark.parametrize("spec", CACHE_SPECS)
def test_mul_arrays_agrees_with_the_kernel_before_and_after_the_table(spec):
    g = build_group(spec)
    n = g.order
    idx = np.arange(n, dtype=np.int64)
    oracle = g._mul_kernel(idx[:, None], idx[None, :])
    rows, from_kernel = [], 0
    for x in range(n):
        from_kernel += g._table is None
        rows.append(g.mul_arrays(x, idx))
    assert g._table is not None
    if n > 4:  # smaller groups build the table while validating inverses
        assert from_kernel > 0
    assert np.array_equal(np.array(rows), oracle)
    assert np.array_equal(g.mul_arrays(idx[:, None], idx[None, :]), oracle)
    assert np.array_equal(g.table, oracle)


@pytest.mark.parametrize("spec", CACHE_SPECS)
def test_table_is_built_after_n_squared_kernel_products(spec):
    g = build_group(spec)
    n = g.order
    if g._table is None:
        left = n * n - g._kernel_products
        zeros = np.zeros(left - 1, dtype=np.int64)
        g.mul_arrays(zeros, zeros)
        assert g._table is None
        assert g.mul_arrays(0, 0) == 0
    assert g._table is not None
    assert g._kernel_products >= n * n


def test_sparse_ap3_count_builds_no_table():
    # |A| ~ 0.3 n: the count evaluates ~2 * (0.3 n)^2 < n^2 products
    g = build_group("PSL2(17)")
    a = make_set(g, "random:0.3,11")
    count_ap3(a)
    assert g.order <= TABLE_CAP
    assert g._table is None


# independent oracles for the two kernels used above TABLE_CAP


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 73])
def test_psl2_kernel_matches_scalar_matrix_products(q):
    g = build_group(f"PSL2({q})")
    add, mul, neg = _gf_scalar_ops(g.field)
    mats = [tuple(int(v[i]) for v in g._mats) for i in range(g.order)]
    index = {m: i for i, m in enumerate(mats)}
    assert len(index) == g.order
    rng = np.random.default_rng(q)
    x = rng.integers(0, g.order, size=400)
    y = rng.integers(0, g.order, size=400)
    got = g._mul_kernel(x, y)
    for i, j, k in zip(x.tolist(), y.tolist(), got.tolist()):
        a1, b1, c1, d1 = mats[i]
        a2, b2, c2, d2 = mats[j]
        prod = (
            add(mul(a1, a2), mul(b1, c2)),
            add(mul(a1, b2), mul(b1, d2)),
            add(mul(c1, a2), mul(d1, c2)),
            add(mul(c1, b2), mul(d1, d2)),
        )
        assert k == index[min(prod, tuple(neg(e) for e in prod))]

    def oracle(i, j):
        a1, b1, c1, d1 = mats[i]
        a2, b2, c2, d2 = mats[j]
        prod = (
            add(mul(a1, a2), mul(b1, c2)),
            add(mul(a1, b2), mul(b1, d2)),
            add(mul(c1, a2), mul(d1, c2)),
            add(mul(c1, b2), mul(d1, d2)),
        )
        return index[min(prod, tuple(neg(e) for e in prod))]

    _check_kernel_shapes(g, oracle, rng)


def _broadcast_operands(n, rng):
    """Operand pairs of the shapes a kernel must broadcast: a column times a
    row, a 0-d array with a vector on either side, a read-only broadcast
    view, and int32 indices."""
    col = rng.integers(0, n, size=(5, 1))
    row = rng.integers(0, n, size=(1, 7))
    vec = rng.integers(0, n, size=9)
    zero_d = np.asarray(rng.integers(0, n))
    view = np.broadcast_to(rng.integers(0, n, size=(1, 6)), (4, 6))
    return [
        (col, row),
        (zero_d, vec),
        (vec, zero_d),
        (view, rng.integers(0, n, size=(4, 1))),
        (rng.integers(0, n, size=(3, 6)), view[:3]),
        (col.astype(np.int32), row.astype(np.int32)),
        (vec.astype(np.int32), vec[::-1].copy()),
    ]


def _check_kernel_shapes(g, oracle, rng):
    """The kernel on every operand pair of _broadcast_operands: the broadcast
    shape, an int64 result and the scalar oracle at every position."""
    for x, y in _broadcast_operands(g.order, rng):
        got = g._mul_kernel(x, y)
        bx, by = np.broadcast_arrays(x, y)
        assert got.shape == bx.shape and got.dtype == np.int64
        want = [oracle(i, j) for i, j in zip(bx.ravel().tolist(), by.ravel().tolist())]
        assert got.ravel().tolist() == want


def _psl2_matrix_product_oracle(g):
    """The index of each product x*y from the 2x2 matrix product over the
    field tables, reduced mod +-I to the lexicographically smaller sign and
    found in a dense table of the elements' own matrices: a unimodular
    matrix is fixed by (a, b, c) when a != 0, and by (b, d) when a = 0."""
    q, f_mul, f_add, f_neg = g.q, g.field.mul_table, g.field.add_table, g.field.neg_table

    def encode(a, b, c, d):
        return ((a.astype(np.int64) * q + b) * q + c) * q + d

    def slot(a, b, c, d):
        code = np.minimum(encode(a, b, c, d), encode(*(f_neg[e] for e in (a, b, c, d))))
        a, b, c, d = (code // q**e % q for e in (3, 2, 1, 0))
        return np.where(a != 0, (a * q + b) * q + c, q**3 + b * q + d)

    element_at = np.full(q**3 + q**2, -1)
    element_at[slot(*g._mats)] = np.arange(g.order)

    def oracle(x, y):
        a1, b1, c1, d1 = (m[x] for m in g._mats)
        a2, b2, c2, d2 = (m[y] for m in g._mats)
        found = element_at[slot(
            f_add[f_mul[a1, a2], f_mul[b1, c2]],
            f_add[f_mul[a1, b2], f_mul[b1, d2]],
            f_add[f_mul[c1, a2], f_mul[d1, c2]],
            f_add[f_mul[c1, b2], f_mul[d1, d2]],
        )]
        assert found.min() >= 0
        return found

    return oracle


# every prime power q with PSL2(q) of order <= TABLE_CAP
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
def test_psl2_kernel_matches_the_matrix_product_on_every_pair(q):
    g = build_group(f"PSL2({q})")
    oracle = _psl2_matrix_product_oracle(g)
    idx = np.arange(g.order)
    for x in np.array_split(idx, max(1, g.order // 256)):
        x, y = x[:, None], idx[None, :]
        assert np.array_equal(g._mul_kernel(x, y), oracle(x, y))


@pytest.mark.parametrize("q", [23, 29, 49, 73])
def test_psl2_kernel_matches_the_matrix_product_on_seeded_pairs(q):
    g = build_group(f"PSL2({q})")
    x, y = np.random.default_rng(q).integers(0, g.order, size=(2, 200_000))
    assert np.array_equal(g._mul_kernel(x, y), _psl2_matrix_product_oracle(g)(x, y))


def _index_entries(g):
    return sum(table.size for table in g._tables)


@pytest.mark.parametrize("q", [4, 9, 29, 73])
def test_psl2_images_and_index_sizes(q):
    g = build_group(f"PSL2({q})")
    n, w = g.order, q + 1
    add, mul, _ = _gf_scalar_ops(g.field)
    assert g.images.itemsize == 1 and g.images.nbytes == n * w
    # 0 and 1 split the elements into the (q+1)q ordered pairs of distinct
    # points (PSL2(q) is 2-transitive), and 2 separates them: (q+1)^2 slots
    # at the middle level and (q(q+1) + 1)(q+1) at the last would hold
    # (q+1)^3 + (q+1), so one dense (q+1)^3 table over all three replaces them
    assert g.base == [0, 1, 2] and g._depth == 3
    assert [t.size for t in g._tables] == [w**3]
    assert _index_entries(g) == w**3 and np.count_nonzero(g._tables[-1] >= 0) == n
    assert g._tables[0].dtype == np.intp
    # each row permutes the q + 1 points
    assert np.array_equal(np.sort(g.images, axis=1), np.broadcast_to(np.arange(w), (n, w)))
    assert np.array_equal(g._lookup(g.images[:, b] for b in g.base), np.arange(n))
    # x -> (ax + b)/(cx + d), with infinity at q, from the scalar field ops
    inverse = {v: u for u in range(1, q) for v in range(1, q) if mul(u, v) == 1}

    def image(a, b, c, d, x):
        num, den = (a, c) if x == q else (add(mul(a, x), b), add(mul(c, x), d))
        return q if den == 0 else mul(num, inverse[den])

    rng = np.random.default_rng(q)
    for k, x in zip(rng.integers(0, n, 300).tolist(), rng.integers(0, w, 300).tolist()):
        assert g.images[k, x] == image(*(int(m[k]) for m in g._mats), x)


@pytest.mark.parametrize("q", [4, 7])
def test_psl2_lookup_rejects_keys_no_element_has(q):
    g = build_group(f"PSL2({q})")
    assert g.base == [0, 1, 2]
    assert g._lookup(np.array(b) for b in (0, 1, 2)).tolist() == 0  # the identity fixes all three
    # no element sends two points to one; for odd q, x -> 3x (3 a non-square
    # mod 7) lies in PGL2(q) but not in PSL2(q)
    missing = [(0, 0, 0), (1, 1, q), (0, 2, 2)] + ([(0, 3, 6)] if q == 7 else [])
    for images in missing:
        with pytest.raises(NotAGroup, match="outside the element set"):
            g._lookup(np.array([b, v]) for b, v in zip((0, 1, 2), images))


# permutation groups with awkward bases, and their greedy bases (0-based; a
# base of fewer than two points is padded by repeating one)
AWKWARD_BASES = {
    "perm:(1)": [0, 0],  # the trivial group
    "perm:(2 3 4)": [1, 1],  # every element fixes the first point
    "perm:(2 3);(4 5 6)": [1, 3],  # two orbits
    "perm:(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)": [0, 0],  # one point fixes each element
    # S3^5 on five orbits of three points
    "perm:(1 2 3);(1 2);(4 5 6);(4 5);(7 8 9);(7 8);(10 11 12);(10 11);(13 14 15);(13 14)": [
        0, 1, 3, 4, 6, 7, 9, 10, 12, 13
    ],
    "perm:(1 2);(3 4);(5 6);(7 8);(9 10);(11 12);(13 14)": [0, 2, 4, 6, 8, 10, 12],  # 2^7 on 14 points
    "perm:(1 2 3 4 5 6);(1 2)": [0, 1, 2, 3, 4],
    "perm:(1 2 3 4 5 6 7);(1 2)": [0, 1, 2, 3, 4, 5],
    "perm:(1 2 3 4 5 6 7 8);(1 2)": [0, 1, 2, 3, 4, 5, 6],
    "perm:(1 2 3 4 5 6 7 8 9);(1 2 3)": [0, 1, 2, 3, 4, 5, 6],  # A9
}
AWKWARD_PERMS = list(AWKWARD_BASES)


@pytest.mark.parametrize("spec", AWKWARD_PERMS)
def test_permutation_kernel_matches_python_composition(spec):
    g = build_group(spec)
    perms = [tuple(int(v) for v in row) for row in g.images]
    index = {perm: i for i, perm in enumerate(perms)}
    rng = np.random.default_rng(g.order)
    x = rng.integers(0, g.order, size=2000)
    y = rng.integers(0, g.order, size=2000)
    got = g._mul_kernel(x, y)
    for i, j, k in zip(x.tolist(), y.tolist(), got.tolist()):
        f, h = perms[i], perms[j]
        assert k == index[tuple(f[h[pt]] for pt in range(g.degree))]
        assert g.mul(i, j) == k
    assert [g.mul(i, j) for i, j in zip(x[:200], y[:200])] == got[:200].tolist()  # np.int64 arguments

    def oracle(i, j):
        f, h = perms[i], perms[j]
        return index[tuple(f[h[pt]] for pt in range(g.degree))]

    _check_kernel_shapes(g, oracle, rng)


@pytest.mark.parametrize("spec", AWKWARD_PERMS)
def test_permutation_lookup_matches_a_sorted_search(spec):
    g = build_group(spec)
    n, degree = g.order, g.degree
    weights = degree ** np.arange(degree - 1, -1, -1)
    keys = g.images.astype(np.int64) @ weights
    assert np.all(keys[1:] > keys[:-1])  # indexed in full-degree key order
    assert g.images.dtype == np.uint8 and g.base == AWKWARD_BASES[spec]
    assert np.array_equal(g._lookup(g.images[:, b] for b in g.base), np.arange(n))
    assert _index_entries(g) <= degree * (n + degree + len(g.base))
    # products composed on every point and found by a sorted search: every
    # pair up to order 720, seeded pairs above, in the kernel and scalar mul
    if n <= 720:
        x, y = np.divmod(np.arange(n * n), n)
    else:
        x, y = np.random.default_rng(n).integers(0, n, size=(2, 20_000))
    composed = np.take_along_axis(g.images[x], g.images[y].astype(np.int64), axis=1) @ weights
    want = np.searchsorted(keys, composed)
    assert np.array_equal(keys[want], composed)
    assert np.array_equal(g._mul_kernel(x, y), want)
    assert [g.mul(i, j) for i, j in zip(x[:2000].tolist(), y[:2000].tolist())] == want[:2000].tolist()
    # base images that are no element's, alone or between two elements'
    if n < degree ** len(g.base):
        digits = degree ** np.arange(len(g.base))
        base_keys = np.sort(g.images[:, g.base].astype(np.int64) @ digits)
        strings = np.random.default_rng(n).integers(0, degree, size=(400, len(g.base)))
        absent = strings[base_keys[np.searchsorted(base_keys, strings @ digits) % n] != strings @ digits][:20]
        assert len(absent)
        for images in absent:
            with pytest.raises(NotAGroup, match="outside the element set"):
                g._lookup(np.array([g.images[0, b], v, g.images[-1, b]]) for b, v in zip(g.base, images))


# scalar mul: one product in plain Python over the kernel's own arrays


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 29, 49, 73])
def test_psl2_scalar_mul_matches_the_kernel(q):
    # every pair up to PSL2(11), 20k seeded pairs above the table cap
    g = build_group(f"PSL2({q})")
    n = g.order
    if n <= 660:
        x, y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    else:
        x, y = np.random.default_rng(q).integers(0, n, size=(2, 20_000))
    want = g._mul_kernel(x, y).tolist()
    assert [g.mul(i, j) for i, j in zip(x.tolist(), y.tolist())] == want
    # np.int64 arguments, as read off an index array, give the same ints
    assert [g.mul(i, j) for i, j in zip(x[:500], y[:500])] == want[:500]
    assert type(g.mul(x[0], y[0])) is int


def _index_path(g, k):
    """The slot that element k reads at each level of the index, walked from
    its own images of the base."""
    w = g.images.shape[1]
    slot = 0
    for point in g.base[:g._depth]:
        slot = slot * w + int(g.images[k, point])
    slots = [slot]
    slot = int(g._tables[0][slot])
    for table, point in zip(g._tables[1:], g.base[g._depth:]):
        slot += int(g.images[k, point])
        slots.append(slot)
        slot = int(table[slot])
    assert slot == k
    return slots


CORRUPT_LEVELS = {"middle": (0, None), "last": (-1, -1)}


def _check_corrupt_index_entries(spec, levels=tuple(CORRUPT_LEVELS)):
    """A product's slot at the first middle level sent to the dead node (the
    largest entry of a middle table), or its slot at the last level to -1:
    both the kernel and the scalar mul must then refuse it."""
    for level in levels:
        at, dead = CORRUPT_LEVELS[level]
        g = build_group(spec)
        assert level == "last" or len(g._tables) > 1
        i, j = 5, 17
        k = g.mul(i, j)
        table = g._tables[at]
        table[_index_path(g, k)[at]] = table.max() if dead is None else dead
        with pytest.raises(NotAGroup, match="outside the element set"):
            g.mul(i, j)
        with pytest.raises(NotAGroup, match="outside the element set"):
            g._mul_kernel(np.array([i]), np.array([j]))


def test_psl2_corrupt_index_entry_raises_from_kernel_and_scalar_mul():
    # PSL2's index is one (q+1)^3 table, which is its last level
    assert len(build_group("PSL2(11)")._tables) == 1
    _check_corrupt_index_entries("PSL2(11)", ["last"])


@pytest.mark.parametrize("level", CORRUPT_LEVELS)
def test_permutation_corrupt_index_entry_raises_from_kernel_and_scalar_mul(level):
    _check_corrupt_index_entries("perm:(1 2 3 4 5 6);(1 2)", [level])


def test_point_image_groups_share_one_kernel():
    # one kernel, one scalar mul and one lookup for PSL2 and permutations
    for cls in (PSL2Group, PermutationGroup):
        assert issubclass(cls, PointImageGroup)
        assert not {"_mul_kernel", "mul", "_lookup"} & set(vars(cls)), cls


@pytest.mark.parametrize("spec", ["PSL2(11)", "perm:(1 2 3 4 5 6);(1 2)"])
def test_scalar_mul_takes_no_vector_path_and_builds_no_table(spec, monkeypatch):
    g = build_group(spec)
    n = g.order
    x, y = np.random.default_rng(n).integers(0, n, size=(2, 5000))
    want = g._mul_kernel(x, y).tolist()
    orders = [element_order(g, e) for e in range(20)]

    def refuse(*args):
        raise AssertionError("a scalar product went through the vector path")

    monkeypatch.setattr(g, "mul_arrays", refuse)
    monkeypatch.setattr(g, "_mul_kernel", refuse)
    g._kernel_products = n * n - 1  # one vector product short of the table
    assert [g.mul(i, j) for i, j in zip(x.tolist(), y.tolist())] == want
    assert [element_order(g, e) for e in range(20)] == orders
    assert g._table is None
    assert g._kernel_products == n * n - 1


@pytest.mark.parametrize(
    "spec",
    FLEET_SPECS + ["PSL2(13)", "perm:(1 2 3 4 5 6 7);(1 2)", "Z/3 x Z/9 x Z/27", "Z/2 x Z/2 x Z/2 x Z/2 x Z/2"],
)
def test_generating_set_is_small_and_generates(spec):
    g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
    gens = groups._generating_set(g)
    assert 2 ** len(gens) <= g.order
    assert gens == sorted(gens) and 0 not in gens
    assert groups._subgroup_closure(g, gens).all()


def test_subgroup_closure_extends_a_given_subgroup_in_place():
    g = build_group("Z/12")
    member = groups._subgroup_closure(g, [4])
    assert np.flatnonzero(member).tolist() == [0, 4, 8]
    assert groups._subgroup_closure(g, [6], member) is member
    assert np.flatnonzero(member).tolist() == [0, 2, 4, 6, 8, 10]
    assert np.flatnonzero(groups._subgroup_closure(g, [])).tolist() == [0]


# words: mul_arrays(a, b, *more) multiplies left to right; a point-image
# kernel composes the word's images and looks it up once


def _word_group(spec):
    """A fresh group, so that its Cayley table is not yet built."""
    if spec == "PSL2(5) x Z/3":
        return build_group(DirectProduct((PSL2(5), Cyclic(3))))
    return build_group(spec)


def _word_operands(n, rng):
    """Words of the shapes the kernels must broadcast: 0-d factors, vectors,
    the ap3 layout (1,c)*(r,1)*(1,c), a column times a row, a row times a
    block, four factors, and int32 factors next to int64 ones."""
    col = rng.integers(0, n, size=(5, 1))
    row = rng.integers(0, n, size=(1, 7))
    vec = rng.integers(0, n, size=9)
    block = rng.integers(0, n, size=(5, 7))
    zero_d = [np.asarray(v) for v in rng.integers(0, n, size=3)]
    return [
        tuple(zero_d),
        (zero_d[0], vec, zero_d[1]),
        (vec, vec[::-1].copy(), rng.integers(0, n, size=9)),
        (row, col, row),
        (col, row, col),
        (row, block, col),
        (col, row, block, zero_d[2]),
        (row.astype(np.int32), col, row),
        (col.astype(np.int32), row.astype(np.int32), col.astype(np.int32)),
        (vec.astype(np.int32), vec, vec.astype(np.int32)),
    ]


WORD_SPECS = FLEET_SPECS + ["PSL2(5) x Z/3", "PSL2(13)", "perm:(1 2 3 4 5 6 7);(1 2)", "PSL2(29)"]


@pytest.mark.parametrize("spec", WORD_SPECS)
def test_a_word_equals_its_pairwise_fold(spec):
    g = _word_group(spec)
    n = g.order
    rng = np.random.default_rng(n)
    words = _word_operands(n, rng)
    for built in (False, True):
        if built:
            assert g.table is not None or n > TABLE_CAP
        for word in words:
            fold = g.mul_arrays(word[0], word[1])
            for f in word[2:]:
                fold = g.mul_arrays(fold, f)
            got = g.mul_arrays(*word)
            assert got.shape == np.broadcast(*word).shape and got.dtype == np.int64
            assert np.array_equal(got, fold), (built, [f.shape for f in word])
            # the scalar product, one entry at a time
            flat = [f.ravel().tolist() for f in np.broadcast_arrays(*word)]
            want = []
            for entry in zip(*flat):
                k = entry[0]
                for v in entry[1:]:
                    k = g.mul(k, v)
                want.append(k)
            assert got.ravel().tolist() == want
    assert (g._table is None) == (n > TABLE_CAP)


@pytest.mark.parametrize("spec", ["PSL2(5)", "perm:(1 2 3 4);(1 2)", "Z/60", "PSL2(5) x Z/3"])
def test_a_word_counts_its_products_toward_the_table(spec):
    # a word of k factors is k - 1 products an entry
    g = _word_group(spec)
    n = g.order
    x = np.arange(n)
    start = g._kernel_products  # the build check's
    g.mul_arrays(x[:, None], x[None, :5], 0)
    assert g._kernel_products == start + 2 * 5 * n and g._table is None
    g.mul_arrays(x, x, x, x)
    assert g._kernel_products == start + 2 * 5 * n + 3 * n and g._table is None
    # the word that reaches n^2 builds the table, and is read from it
    rest = n * n - g._kernel_products
    left = np.resize(x, (rest + 1) // 2)
    got = g.mul_arrays(left, 1, left)
    assert g._table is not None
    assert np.array_equal(got, g._mul_kernel(g._mul_kernel(left, 1), left))


# the fused first table: as many leading base points as keep it no larger
# than the level tables it replaces

FUSED_SPECS = [f"PSL2({q})" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)] + [
    "perm:(1 2 3 4 5);(1 2)",
    "perm:(1 2 3 4 5 6);(1 2)",
]


@pytest.mark.parametrize("spec", FUSED_SPECS)
def test_the_fused_index_gives_every_product(spec):
    g = build_group(spec)
    n, width = g.images.shape
    assert len(g._tables) == len(g.base) - g._depth + 1
    assert g._tables[0].size == width**g._depth
    assert all(t.dtype == np.intp for t in g._tables)
    # every product by a brute composition of image rows, found by a sorted
    # search over the rows read as base-width numbers
    weights = width ** np.arange(width - 1, -1, -1, dtype=np.int64)
    keys = g.images.astype(np.int64) @ weights
    order = np.argsort(keys)
    y = np.arange(n)
    for lo in range(0, n, 64):
        x = np.arange(lo, min(lo + 64, n))
        composed = np.take_along_axis(g.images[x][:, None, :], g.images[y][None, :, :].astype(np.intp), axis=2)
        found = order[np.searchsorted(keys, composed @ weights, sorter=order)]
        assert np.array_equal(g._mul_kernel(x[:, None], y[None, :]), found)
        assert np.array_equal(g._mul_kernel(np.repeat(x, n), np.tile(y, len(x))), found.ravel())


def test_fusion_takes_the_dense_table_where_it_is_no_larger():
    # PSL2(q): (q+1)^3 slots against (q+1)^2 + (q(q+1) + 1)(q+1), so one table
    for q in (5, 29):
        g = build_group(f"PSL2({q})")
        assert g._depth == 3 and len(g._tables) == 1
    # S7 on 7 points: 7^3 <= 49 + 43*7 fuses three base points, 7^4 > 49 +
    # 301 + 211*7 stops there, so S7 keeps four of its five levels
    g = build_group("perm:(1 2 3 4 5 6 7);(1 2)")
    assert g.base == [0, 1, 2, 3, 4, 5] and g._depth == 3
    assert [t.size for t in g._tables] == [7**3, 211 * 7, 841 * 7, 2521 * 7]
    # S3^5 on 15 points: 15^3 > 15^2 + 7*15, so no fusion
    assert build_group(AWKWARD_PERMS[4])._depth == 2


def test_the_psl2_73_index_stays_within_its_bytes():
    g = build_group("PSL2(73)")
    assert sum(t.nbytes for t in g._tables) <= 3.25e6
    assert [t.size for t in g._tables] == [74**3]


@pytest.mark.parametrize("spec", ["PSL2(11)", "PSL2(29)", "perm:(1 2 3 4 5 6);(1 2)", "perm:(1 2 3 4 5 6 7);(1 2)"])
def test_a_corrupted_image_row_raises_from_every_path(spec):
    # a row that sends every point to point 0 has base images no element has,
    # and so has its product with any element on either side
    g = build_group(spec)
    n = g.order
    bad = 5
    g.images[bad] = 0
    g._columns[:, bad] = 0
    others = np.arange(n - 10, n)
    for a, b in (
        (np.array([bad]), others),  # one flat product row
        (np.array([[bad], [1]]), others[None, :]),  # a row block
        (others[:, None], np.array([[bad, 2]])),  # the corrupted row on the right
        (np.asarray(bad), np.asarray(3)),
    ):
        with pytest.raises(NotAGroup, match="outside the element set"):
            g._mul_kernel(a, b)
    with pytest.raises(NotAGroup, match="outside the element set"):
        g._mul_word((others[None, :], np.array([[bad]]), others[None, :]))
    with pytest.raises(NotAGroup, match="outside the element set"):
        g.mul(bad, 3)
