from __future__ import annotations

import pytest

from grplab.errors import NotPrimePower
from grplab.gf import PrimePowerField, factor_prime_power


def test_factor_prime_power():
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(49) == (7, 2)
    for bad in (0, 1, 6, 10, 12, 100):
        with pytest.raises(NotPrimePower):
            factor_prime_power(bad)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27])
def test_field_axioms(q):
    f = PrimePowerField(q)
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    elems = range(q)
    for a in elems:
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert mul[a, 0] == 0
        assert add[a, neg[a]] == 0
        if a:
            assert mul[a, inv[a]] == 1
    # associativity and distributivity on a full triple scan for small q,
    # else a fixed slice
    triples = (
        [(a, b, c) for a in elems for b in elems for c in elems]
        if q <= 9
        else [(a, b, (a * b + 1) % q) for a in elems for b in elems]
    )
    for a, b, c in triples:
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert add[add[a, b], c] == add[a, add[b, c]]
        lhs = mul[a, add[b, c]]
        rhs = add[mul[a, b], mul[a, c]]
        assert lhs == rhs


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_multiplicative_group_is_cyclic(q):
    f = PrimePowerField(q)
    # every nonzero element has multiplicative order dividing q-1, and some
    # element attains it: the multiplicative group of a field is cyclic
    orders = []
    for a in range(1, q):
        order = 1
        acc = a
        while acc != 1:
            acc = int(f.mul_table[acc, a])
            order += 1
        assert (q - 1) % order == 0
        orders.append(order)
    assert max(orders) == q - 1
    assert f.modulus is not None


def test_field_is_deterministic():
    a = PrimePowerField(9)
    b = PrimePowerField(9)
    assert a.modulus == b.modulus
    assert (a.mul_table == b.mul_table).all()
