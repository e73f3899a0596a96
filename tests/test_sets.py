from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grplab import counting
from grplab.counting import count_xy_eq_z
from grplab.errors import EmptySet, GroupMismatch, KindUnsupportedForGroup, MalformedSpec
from grplab.groups import build_group
from grplab.rng import SplitMix64
from grplab.sets import (
    GroupSubset,
    doubling_constant,
    growth_profile,
    inverse_set,
    is_product_free,
    iterated_product,
    make_set,
    parse_set_spec,
    product_set,
    symmetrize,
    tripling_constant,
)

from conftest import RULE_GROUPS, fleet_group, rule_sets, traced_peak

settings.register_profile("suite", settings(max_examples=60, deadline=None))
settings.load_profile("suite")

# small groups for the property tests; indices into FLEET_SPECS
_PROP_SPECS = ["Z/4", "Z/6", "Z/12", "Z/2 x Z/3", "perm:(1 2 3);(1 2)", "perm:(1 2 3 4);(1 2)"]

subset_case = st.sampled_from(_PROP_SPECS).flatmap(
    lambda spec: st.tuples(
        st.just(spec),
        st.sets(st.integers(min_value=0, max_value=fleet_group(spec).order - 1)),
    )
)


def _subset(spec, idx):
    return GroupSubset.from_indices(fleet_group(spec), sorted(idx))


def _product_oracle(a: GroupSubset, b: GroupSubset) -> set:
    g = a.group
    return {g.mul(x, y) for x in a.to_index_list() for y in b.to_index_list()}


def test_product_set_examples():
    z10 = build_group("Z/10")
    a = GroupSubset.from_indices(z10, [0, 1, 2])
    assert product_set(a, a).to_index_list() == [0, 1, 2, 3, 4]
    z5 = build_group("Z/5")
    b = GroupSubset.from_indices(z5, [2, 3])
    assert product_set(b, b).to_index_list() == [0, 1, 4]


def test_product_with_identity_singleton(any_fleet_group):
    g = any_fleet_group
    ident = GroupSubset.from_indices(g, [0])
    a = GroupSubset.from_indices(g, range(0, g.order, 2))
    assert product_set(a, ident) == a
    assert product_set(ident, a) == a


def test_product_set_dense_convolution_path():
    # dense sets on a cyclic group route through the convolution support;
    # must match the pairwise definition exactly
    g = build_group("Z/300")
    a = make_set(g, "random:0.9,1")
    b = make_set(g, "random:0.9,2")
    assert counting._resolve_engine(g, "auto", a.card * b.card) == "AbelianFFT"
    fast = product_set(a, b)
    assert set(fast.to_index_list()) == _product_oracle(a, b)


def _sum_free_set(g, card):
    """Up to ``card`` seeded elements whose coordinate in the largest cyclic
    factor Z/m lies strictly between m/3 and 2m/3: a sum-free set."""
    m = max(g.cyclic_moduli)
    coords = np.unravel_index(np.arange(g.order), g.cyclic_moduli)[list(g.cyclic_moduli).index(m)]
    pool = np.flatnonzero((3 * coords > m) & (3 * coords < 2 * m))
    pick = np.random.default_rng(4).choice(pool, min(card, pool.size), replace=False)
    return GroupSubset.from_indices(g, pick)


@pytest.mark.parametrize("step", [0, 1], ids=["below", "above"])
@pytest.mark.parametrize("spec", RULE_GROUPS)
def test_product_set_and_product_free_agree_on_both_paths(spec, step, monkeypatch):
    g, card, (a, b) = rule_sets(spec, step, 2)
    cyclic = g.cyclic_moduli is not None
    free = _sum_free_set(g, card) if cyclic else a

    def run():
        return product_set(a, b).to_index_list(), is_product_free(a), is_product_free(free)

    auto = run()
    assert auto[1] == (count_xy_eq_z(a, a, a, "cayley").count == 0)
    assert auto[2] == (count_xy_eq_z(free, free, free, "cayley").count == 0) == cyclic
    for engine in ["CayleyConvolution"] + ["AbelianFFT"] * cyclic:
        with monkeypatch.context() as patch:
            patch.setattr(counting, "_resolve_engine", lambda *_: engine)
            assert run() == auto


def test_group_mismatch():
    a = GroupSubset.full(build_group("Z/4"))
    b = GroupSubset.full(build_group("Z/5"))
    with pytest.raises(GroupMismatch):
        product_set(a, b)


@given(subset_case, st.data())
def test_product_set_matches_oracle(case, data):
    spec, idx = case
    g = fleet_group(spec)
    other = data.draw(st.sets(st.integers(min_value=0, max_value=g.order - 1)))
    a, b = _subset(spec, idx), _subset(spec, other)
    assert set(product_set(a, b).to_index_list()) == _product_oracle(a, b)


@given(subset_case)
def test_inverse_set_is_involutive(case):
    a = _subset(*case)
    assert inverse_set(inverse_set(a)) == a


@given(subset_case)
def test_symmetrize_contract(case):
    a = _subset(*case)
    s = symmetrize(a)
    assert s.contains(0)
    assert s.card <= 2 * a.card + 1
    assert set(a.to_index_list()) <= set(s.to_index_list())
    assert inverse_set(s) == s
    # symmetric sets containing the identity are fixed points
    assert symmetrize(s) == s


def test_inverse_and_symmetrize_example():
    z7 = build_group("Z/7")
    a = GroupSubset.from_indices(z7, [1, 2])
    assert inverse_set(a).to_index_list() == [5, 6]
    assert symmetrize(a).to_index_list() == [0, 1, 2, 5, 6]


def test_iterated_product_examples():
    z100 = build_group("Z/100")
    a = GroupSubset.from_indices(z100, [0, 1])
    assert iterated_product(a, 1).to_index_list() == [0, 1, 99]
    assert iterated_product(a, 2).to_index_list() == [0, 1, 2, 98, 99]
    z5 = build_group("Z/5")
    b = GroupSubset.from_indices(z5, [1])
    assert iterated_product(b, 2).card == 5


def test_iterated_product_fixes_subgroups():
    z12 = build_group("Z/12")
    h = make_set(z12, "subgroup:4")
    for m in (1, 2, 3):
        assert iterated_product(h, m) == h


@given(subset_case.filter(lambda c: len(c[1]) > 0), st.integers(min_value=1, max_value=4))
def test_iterated_product_is_monotone(case, m):
    a = _subset(*case)
    small = iterated_product(a, m)
    big = iterated_product(a, m + 1)
    assert set(small.to_index_list()) <= set(big.to_index_list())


def test_doubling_and_tripling_examples():
    z10 = build_group("Z/10")
    a = GroupSubset.from_indices(z10, [0, 1, 2])
    assert doubling_constant(a) == Fraction(5, 3)
    assert tripling_constant(a, "aaa") == Fraction(7, 3)
    assert tripling_constant(a, "aia") == Fraction(7, 3)
    h = make_set(z10, "subgroup:2")
    assert doubling_constant(h) == 1


@given(subset_case.filter(lambda c: len(c[1]) > 0))
def test_doubling_at_least_one(case):
    a = _subset(*case)
    d = doubling_constant(a)
    assert d >= 1
    assert (d == 1) == (product_set(a, a).card == a.card)


def test_empty_set_errors():
    a = GroupSubset.empty(build_group("Z/5"))
    with pytest.raises(EmptySet):
        doubling_constant(a)
    with pytest.raises(EmptySet):
        growth_profile(a, 3)


def test_growth_profile_interval_oracle():
    # interval arithmetic: the m-th symmetrized power of {0..9} in Z/1000 is
    # the interval [-9m, 9m], of size 18m+1, until it wraps
    z1000 = build_group("Z/1000")
    a = make_set(z1000, "interval:0,10")
    profile = growth_profile(a, 6)
    assert profile == [Fraction(18 * m + 1, 10) for m in range(1, 7)]


@given(subset_case.filter(lambda c: len(c[1]) > 0))
def test_growth_profile_nondecreasing(case):
    a = _subset(*case)
    profile = growth_profile(a, 4)
    assert all(x <= y for x, y in zip(profile, profile[1:]))


def test_growth_profile_constant_for_subgroups():
    z12 = build_group("Z/12")
    h = make_set(z12, "subgroup:3")
    assert growth_profile(h, 4) == [Fraction(1)] * 4


def test_is_product_free_examples():
    z5 = build_group("Z/5")
    assert is_product_free(GroupSubset.from_indices(z5, [2, 3]))
    assert not is_product_free(GroupSubset.from_indices(z5, [1, 2]))
    assert not is_product_free(GroupSubset.from_indices(z5, [0]))  # id*id = id
    assert is_product_free(GroupSubset.empty(z5))


def _product_free_oracle(a: GroupSubset) -> bool:
    g = a.group
    elems = a.to_index_list()
    return not any(g.mul(x, y) in set(elems) for x in elems for y in elems)


@given(subset_case)
def test_is_product_free_matches_oracle(case):
    a = _subset(*case)
    assert is_product_free(a) == _product_free_oracle(a)


# --- constructors ----------------------------------------------------------


def test_make_set_interval():
    z10 = build_group("Z/10")
    assert make_set(z10, "interval:0,3").to_index_list() == [0, 1, 2]
    assert make_set(z10, "interval:8,4").to_index_list() == [0, 1, 8, 9]
    with pytest.raises(MalformedSpec):
        make_set(z10, "interval:0,11")


def test_make_set_gap():
    z100 = build_group("Z/100")
    got = make_set(z100, "gap:0;1,3;10,3").to_index_list()
    assert got == [0, 1, 2, 10, 11, 12, 20, 21, 22]


def test_make_set_subgroup():
    z10 = build_group("Z/10")
    assert make_set(z10, "subgroup:2").to_index_list() == [0, 2, 4, 6, 8]
    s4 = fleet_group("perm:(1 2 3 4);(1 2)")
    h = make_set(s4, parse_set_spec("subgroup:1"))
    assert 24 % h.card == 0


def test_make_set_random_is_seeded():
    z100 = build_group("Z/100")
    a = make_set(z100, "random:0.3,9")
    b = make_set(z100, "random:0.3,9")
    c = make_set(z100, "random:0.3,10")
    assert a == b
    assert a != c
    assert 0 < a.card < 100


def test_a_random_set_is_drawn_without_a_float_array():
    # the mask alone is 0.19 MB; 3.03 MB traced when every draw became an
    # n-sized float64 array before the compare
    g = build_group("Z/200000")
    a, peak = traced_peak(lambda: make_set(g, "random:0.5,1"))
    assert peak < 2.3 * 2**20, peak
    assert np.array_equal(a.mask, SplitMix64(1).uniform_array(g.order) < 0.5)


def test_make_set_explicit_and_json_round_trip():
    z8 = build_group("Z/8")
    a = make_set(z8, "explicit:1,5,7")
    assert a.to_index_list() == [1, 5, 7]
    assert GroupSubset.from_indices(z8, json.loads(a.to_json())) == a
    assert json.loads(a.to_json()) == [1, 5, 7]


def test_interval_requires_cyclic_structure(s3):
    with pytest.raises(KindUnsupportedForGroup):
        make_set(s3, "interval:0,2")
    with pytest.raises(KindUnsupportedForGroup):
        make_set(s3, "gap:0;1,2")


def test_density_is_exact():
    z6 = build_group("Z/6")
    a = GroupSubset.from_indices(z6, [1, 2])
    assert a.density == Fraction(1, 3)


def _bfs_subgroup(group, gens):
    # scalar oracle: breadth-first right multiplication from the identity
    members, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = group.mul(x, gen)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(members)


@pytest.mark.parametrize(
    "spec", ["Z/12", "Z/2 x Z/2 x Z/2", "perm:(1 2 3 4);(1 3)", "perm:(1 2 3 4);(1 2)", "PSL2(5)"]
)
def test_make_set_subgroup_matches_scalar_bfs(spec):
    g = fleet_group(spec)
    stream = SplitMix64(g.order)
    gen_lists = [(), (0,), (0, 0), (1,), (g.order - 1, 1)]
    gen_lists += [tuple(stream.randrange(g.order) for _ in range(k)) for k in (1, 2, 3) for _ in range(3)]
    for gens in gen_lists:
        spec_text = "subgroup:" + ",".join(str(x) for x in gens)
        assert make_set(g, spec_text).to_index_list() == _bfs_subgroup(g, gens), spec_text
