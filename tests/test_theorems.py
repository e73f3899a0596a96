"""Theorems on quasirandom groups as exact integer invariants.

For a group G of order n whose nontrivial representations all have degree
at least m (``quasirandomness_degree``) and N = #{(x, y, z) in X x Y x Z :
xy = z}:

- mixing (Gowers; Babai, Nikolov and Pyber): |N - |X||Y||Z|/n| is at most
  sqrt(n |X||Y||Z| / m), squared and cleared of denominators as
  m (nN - |X||Y||Z|)^2 <= n^3 |X||Y||Z|;
- Nikolov and Pyber: m |A||B||C| > n^3 forces ABC = G;
- x^n1 x^n2 = x^n3 for every x when n1 + n2 = n3, so a power count's
  diagonal is all of A;
- Gowers: a product-free A has m |A|^3 <= n^3;
- Cauchy-Schwarz on the product counts r(z) = #{(a, b) in A^2 : ab = z}:
  the energy E(A) = sum r(z)^2 has E(A) |AA| >= |A|^4;
- Ruzsa's triangle inequality |X| |YZ^-1| <= |YX^-1| |XZ^-1|, in any group;
- Pluennecke-Ruzsa, in an abelian group: |A|^2 |3A| <= |2A|^3;
- class sums: with a_ijk = #{(x, y) in K_i x K_j : xy = z_k} for one z_k in
  the conjugacy class K_k, the xyz count over K_i x K_j x K_k is |K_k| a_ijk.

Every side is a Python integer; nothing is rounded.
"""

from __future__ import annotations

import numpy as np
import pytest

from grplab.counting import _product_counts, count_power_equation, count_xy_eq_z
from grplab.groups import build_group, conjugacy_classes
from grplab.rng import derive
from grplab.sets import GroupSubset, inverse_set, is_product_free, make_set, product_set
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


# the groups of the additive-combinatorics invariants: three quasirandom
# groups and two odd cyclic ones (m = 1)
INVARIANT_GROUPS = ["PSL2(7)", "PSL2(11)", "perm:(1 2 3 4 5);(1 2 3)", "Z/101", "Z/255"]
SPARSE = ["0.01", "0.03", "0.1", "0.3", "0.6"]


@pytest.fixture(scope="module", params=INVARIANT_GROUPS)
def invariant_group(request):
    g = build_group(request.param)
    return g, quasirandomness_degree(g)


def _seeded_sets(g, tag, count=1):
    for i, density in enumerate(SPARSE):
        for trial in range(2):
            yield tuple(make_set(g, f"random:{density},{derive(tag, i, trial, k)}") for k in range(count))


def _greedy_product_free(g, seed):
    """A maximal product-free set, grown over the elements in a seeded order."""
    mask = np.zeros(g.order, dtype=bool)
    for x in np.random.default_rng(seed).permutation(g.order).tolist():
        mask[x] = True
        mask[x] = is_product_free(GroupSubset(g, mask.copy()))
    return GroupSubset(g, mask)


def test_gowers_product_free_sets_are_small(invariant_group):
    g, m = invariant_group
    for seed in range(2):
        a = _greedy_product_free(g, seed)
        assert a.card and count_xy_eq_z(a, a, a).count == 0
        assert m * a.card**3 <= g.order**3, (g.spec_text, a.card)


def test_energy_times_product_set_bounds_the_fourth_power(invariant_group):
    g, _ = invariant_group
    for (a,) in _seeded_sets(g, 41):
        r = _product_counts(g, a.indices, a.indices)
        assert int(r.sum()) == a.card**2
        energy = int(np.dot(r, r))
        assert energy * product_set(a, a).card >= a.card**4, (g.spec_text, a.card)


def test_ruzsa_triangle_inequality(invariant_group):
    g, _ = invariant_group
    for x, y, z in _seeded_sets(g, 43, 3):
        if not x.card:
            continue
        yz, yx, xz = (product_set(s, inverse_set(t)) for s, t in ((y, z), (y, x), (x, z)))
        assert x.card * yz.card <= yx.card * xz.card, (g.spec_text, x.card, y.card, z.card)


@pytest.mark.parametrize("spec", [s for s in INVARIANT_GROUPS if s.startswith("Z/")])
def test_pluennecke_tripling_on_abelian_groups(spec):
    g = build_group(spec)
    structured = [make_set(g, text) for text in ("interval:0,7", "interval:5,30", "gap:0;1,6;50,4")]
    for a in structured + [s for (s,) in _seeded_sets(g, 47)]:
        two = product_set(a, a)
        three = product_set(two, a)
        assert a.card**2 * three.card <= two.card**3, (spec, a.card)


@pytest.mark.parametrize("spec", ["PSL2(7)", "PSL2(5)", "perm:(1 2 3 4);(1 2)"])
def test_class_triple_counts_are_class_size_times_structure_constant(spec):
    # a_ijk counted by scalar products, apart from the counting layer
    g = build_group(spec)
    classes = conjugacy_classes(g).partition
    sets = [GroupSubset.from_indices(g, c) for c in classes]
    for i, ki in enumerate(classes):
        for j, kj in enumerate(classes):
            hits = [0] * g.order
            for x in ki:
                for y in kj:
                    hits[g.mul(x, y)] += 1
            for k, kk in enumerate(classes):
                count = count_xy_eq_z(sets[i], sets[j], sets[k]).count
                assert count == len(kk) * hits[kk[0]], (spec, i, j, k)
