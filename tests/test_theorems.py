"""Theorems on quasirandom groups as exact integer invariants.

For a group G of order n whose nontrivial representations all have degree
at least m (``quasirandomness_degree``) and N = #{(x, y, z) in X x Y x Z :
xy = z}:

- mixing (Gowers; Babai, Nikolov and Pyber): |N - |X||Y||Z|/n| is at most
  sqrt(n |X||Y||Z| / m), squared and cleared of denominators as
  m (nN - |X||Y||Z|)^2 <= n^3 |X||Y||Z|;
- Nikolov and Pyber: m |A||B||C| > n^3 forces ABC = G;
- x^n1 x^n2 = x^n3 for every x when n1 + n2 = n3, so a power count's
  diagonal is all of A.

Every side is a Python integer; nothing is rounded.
"""

from __future__ import annotations

import pytest

from grplab.counting import count_power_equation, count_xy_eq_z
from grplab.groups import build_group
from grplab.rng import derive
from grplab.sets import GroupSubset, make_set, product_set
from grplab.spectral import quasirandomness_degree

GROUPS = ["PSL2(7)", "PSL2(11)", "PSL2(13)", "perm:(1 2 3 4 5);(1 2 3)"]
DENSITIES = ["0.05", "0.3", "0.6", "0.8", "0.95"]


@pytest.fixture(scope="module", params=GROUPS)
def quasirandom(request):
    g = build_group(request.param)
    return g, quasirandomness_degree(g)


def _triples(g):
    for i, density in enumerate(DENSITIES):
        for trial in range(2):
            yield tuple(make_set(g, f"random:{density},{derive(31, i, trial, k)}") for k in range(3))


def test_the_groups_are_quasirandom(quasirandom):
    g, m = quasirandom
    assert m == {60: 3, 168: 3, 660: 5, 1092: 7}[g.order]


def test_mixing_bound(quasirandom):
    g, m = quasirandom
    n = g.order
    for x, y, z in _triples(g):
        count = count_xy_eq_z(x, y, z).count
        sizes = x.card * y.card * z.card
        assert m * (n * count - sizes) ** 2 <= n**3 * sizes, (g.spec_text, x.card, y.card, z.card, count)


def test_nikolov_pyber_products_cover_the_group(quasirandom):
    g, m = quasirandom
    n = g.order
    covered = 0
    for a, b, c in _triples(g):
        if m * a.card * b.card * c.card > n**3:
            assert product_set(product_set(a, b), c) == GroupSubset.full(g), g.spec_text
            covered += 1
    assert covered  # the dense triples meet the hypothesis


@pytest.mark.parametrize("exponents", [(1, 1, 2), (1, 2, 3), (2, 3, 5), (4, 1, 5)])
def test_power_diagonal_is_the_whole_set(quasirandom, exponents):
    g, _ = quasirandom
    for i, density in enumerate(DENSITIES):
        a = make_set(g, f"random:{density},{derive(37, i)}")
        assert count_power_equation(a, *exponents).degenerate_count == a.card
