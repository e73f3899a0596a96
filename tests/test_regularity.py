from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from grplab.errors import ExactCapExceeded, MalformedSpec
from grplab.groups import build_group
from grplab.regularity import (
    NO_VIOLATION_FOUND,
    VERIFIED_EXACT,
    VIOLATED,
    _as_fraction,
    check_product_rich,
    check_regular_position,
)
from grplab.sets import GroupSubset, make_set

from conftest import fleet_group, traced_peak


# --- direct quantifier-by-enumeration oracles, independent of the checkers


def _ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


def _rich_oracle(a: GroupSubset, eps: Fraction):
    g = a.group
    elems = a.to_index_list()
    # eps > 0 forces qualifying subsets to be nonempty
    s_min = max(1, _ceil_frac(eps.numerator * a.card, eps.denominator))
    for size in range(s_min, a.card + 1):
        for sub in itertools.combinations(elems, size):
            inside = set(sub)
            if not any(g.mul(x, y) in inside for x in sub for y in sub):
                return VIOLATED, sub
    return VERIFIED_EXACT, None


def _sss(g, sub):
    pair = {g.mul(x, g.inv(y)) for x in sub for y in sub}
    return {g.mul(p, z) for p in pair for z in sub}


def _regular_oracle(a: GroupSubset, b: GroupSubset, c: GroupSubset, eps: Fraction):
    g = a.group
    memo: dict = {}

    def sss(sub):
        if sub not in memo:
            memo[sub] = _sss(g, sub)
        return memo[sub]

    def qualifying(s: GroupSubset):
        elems = s.to_index_list()
        s_min = _ceil_frac(eps.numerator * s.card, eps.denominator)
        for size in range(s_min, s.card + 1):
            yield from itertools.combinations(elems, size)

    for sa in qualifying(a):
        for sb in qualifying(b):
            for sc in qualifying(c):
                ta, tb, tc = sss(sa), sss(sb), sss(sc)
                if not any(g.mul(x, y) in tc for x in ta for y in tb):
                    return VIOLATED, (sa, sb, sc)
    return VERIFIED_EXACT, None


# --- spec'd cases -----------------------------------------------------------


def test_product_rich_violated_example():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [2, 3])
    verdict = check_product_rich(a, 1)
    assert verdict.status == VIOLATED
    assert verdict.witness == ((2, 3),)


def test_product_rich_identity_singleton():
    z5 = build_group("Z/5")
    verdict = check_product_rich(GroupSubset.from_indices(z5, [0]), 1)
    assert verdict.status == VERIFIED_EXACT


def test_product_rich_whole_small_group():
    z5 = build_group("Z/5")
    assert check_product_rich(GroupSubset.full(z5), Fraction(1, 2)).status == VERIFIED_EXACT


def test_product_rich_exact_cap():
    z30 = build_group("Z/30")
    a = GroupSubset.from_indices(z30, range(25))
    with pytest.raises(ExactCapExceeded):
        check_product_rich(a, Fraction(1, 2))


def test_regular_position_full_group_verified():
    z3 = build_group("Z/3")
    g3 = GroupSubset.full(z3)
    assert check_regular_position(g3, g3, g3, Fraction(1, 2)).status == VERIFIED_EXACT


def test_regular_position_coset_violation():
    # {1,3} is a coset of {0,2} in Z/4: S S^-1 S stays in the coset but a
    # product of two such triples lands back in the subgroup
    z4 = build_group("Z/4")
    coset = GroupSubset.from_indices(z4, [1, 3])
    verdict = check_regular_position(coset, coset, coset, 1)
    assert verdict.status == VIOLATED
    assert verdict.witness == ((1, 3), (1, 3), (1, 3))


def test_eps_collapse_to_single_triple():
    # eps > 1 - 1/|A| means only the full sets qualify
    z4 = build_group("Z/4")
    coset = GroupSubset.from_indices(z4, [1, 3])
    eps = Fraction(3, 4)
    verdict = check_regular_position(coset, coset, coset, eps)
    assert verdict.status == VIOLATED
    assert verdict.witness == ((1, 3), (1, 3), (1, 3))


@pytest.mark.parametrize("spec", ["Z/6", "perm:(1 2 3);(1 2)"])
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)])
def test_product_rich_matches_oracle_exhaustively(spec, eps):
    g = fleet_group(spec)
    for mask in range(1 << g.order):
        a = GroupSubset.from_indices(g, [i for i in range(g.order) if (mask >> i) & 1])
        got = check_product_rich(a, eps)
        want_status, want_witness = _rich_oracle(a, eps)
        assert got.status == want_status
        assert got.witness == (None if want_witness is None else (want_witness,))
        if got.status == VIOLATED:
            sub = set(got.witness[0])
            assert not any(g.mul(x, y) in sub for x in sub for y in sub)
            assert len(sub) * eps.denominator >= a.card * eps.numerator


@pytest.mark.parametrize("spec", ["Z/12", "perm:(1 2 3);(1 2)(3 4)"])
def test_product_rich_matches_oracle_sampled_order_12(spec):
    # seeded sample of subsets with |A| <= 10 on order-12 groups; the
    # exhaustive sweep over order <= 8 lives in the acceptance suite
    from grplab.rng import SplitMix64, derive

    g = fleet_group(spec)
    stream = SplitMix64(derive(7311, g.order))
    for _ in range(150):
        size = stream.randrange(11)
        idx = stream.sample_indices(g.order, size)
        a = GroupSubset.from_indices(g, sorted(idx))
        for eps in (Fraction(1, 2), Fraction(1)):
            got = check_product_rich(a, eps)
            want_status, want_witness = _rich_oracle(a, eps)
            assert got.status == want_status, (spec, sorted(idx), eps)
            assert got.witness == (None if want_witness is None else (want_witness,))


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)])
def test_regular_position_matches_oracle_diagonal(eps):
    g = build_group("Z/5")
    for mask in range(1, 1 << g.order):
        a = GroupSubset.from_indices(g, [i for i in range(g.order) if (mask >> i) & 1])
        got = check_regular_position(a, a, a, eps)
        assert (got.status, got.witness) == _regular_oracle(a, a, a, eps)


def test_regular_position_matches_oracle_mixed_triples():
    g = build_group("Z/4")
    eps = Fraction(1, 2)
    subsets = [
        GroupSubset.from_indices(g, [i for i in range(4) if (mask >> i) & 1])
        for mask in range(1, 16)
    ]
    for a in subsets:
        for b in subsets:
            for c in subsets:
                got = check_regular_position(a, b, c, eps)
                assert (got.status, got.witness) == _regular_oracle(a, b, c, eps)


def test_sampled_mode_reports_sample_count():
    # qualifying subsets of the full odd-order group are strict majorities,
    # so A0 * A0 must meet A0 and no violation exists to find
    z5 = build_group("Z/5")
    verdict = check_product_rich(GroupSubset.full(z5), Fraction(1, 2), mode="sampled", trials=40, seed=3)
    assert verdict.status == NO_VIOLATION_FOUND
    assert verdict.samples == 40


def test_even_order_subgroup_is_not_rich_at_one_half():
    # {2,6,10} inside the subgroup <2> of Z/12 is product-free and has
    # exactly half the subgroup's size
    z12 = build_group("Z/12")
    h = make_set(z12, "subgroup:2")
    verdict = check_product_rich(h, Fraction(1, 2))
    assert verdict.status == VIOLATED


def test_sampled_mode_finds_violations():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [2, 3])
    verdict = check_product_rich(a, 1, mode="sampled", trials=20, seed=1)
    assert verdict.status == VIOLATED
    z4 = build_group("Z/4")
    coset = GroupSubset.from_indices(z4, [1, 3])
    v2 = check_regular_position(coset, coset, coset, 1, mode="sampled", trials=20, seed=1)
    assert v2.status == VIOLATED


def test_sampled_mode_is_deterministic():
    z8 = build_group("Z/8")
    a = GroupSubset.from_indices(z8, [1, 2, 3, 5])
    v1 = check_product_rich(a, Fraction(1, 2), mode="sampled", trials=25, seed=11)
    v2 = check_product_rich(a, Fraction(1, 2), mode="sampled", trials=25, seed=11)
    assert v1 == v2


def _violation_score(combo, prod) -> int:
    """Ordered pairs of members whose product is a member, by full rescan."""
    member = 0
    for i in combo:
        member |= 1 << i
    hits = 0
    for i in combo:
        row = prod[i]
        for j in combo:
            p = row[j]
            if p >= 0 and (member >> p) & 1:
                hits += 1
    return hits


def _rich_sampled_by_rescoring(a: GroupSubset, eps: Fraction, trials: int, seed: int):
    """The sampled product-rich check with every candidate swap rescored in
    full: (status, witness, samples)."""
    from grplab.regularity import _internal_products, _min_qualifying_size
    from grplab.rng import SplitMix64, derive

    k = a.card
    elems = a.to_index_list()
    prod = _internal_products(a)
    s_min = _min_qualifying_size(k, eps)
    rng = SplitMix64(derive(seed, 0x51C4))
    for _ in range(trials):
        combo = sorted(rng.sample_indices(k, s_min))
        score = _violation_score(combo, prod)
        improved = True
        while score > 0 and improved:
            improved = False
            outside = [i for i in range(k) if i not in combo]
            for oi in range(len(combo)):
                for cand in outside:
                    trial = sorted(combo[:oi] + combo[oi + 1:] + [cand])
                    s = _violation_score(trial, prod)
                    if s < score:
                        combo, score, improved = trial, s, True
                        break
                if improved:
                    break
        if score == 0:
            return VIOLATED, ((tuple(elems[i] for i in combo)),), None
    return NO_VIOLATION_FOUND, None, trials


@pytest.mark.parametrize("spec", ["Z/23", "Z/2 x Z/4", "perm:(1 2 3 4);(1 2)", "PSL2(7)", "Z/100"])
def test_sampled_rich_descent_matches_the_full_rescore(spec):
    g = build_group(spec)
    checked = violated = 0
    for seed in range(12):
        for size in (4, 10, 20):
            a = make_set(g, f"random:{min(1, size / g.order)},{seed}")
            if not a.card:
                continue
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                got = check_product_rich(a, eps, mode="sampled", trials=6, seed=seed)
                want = _rich_sampled_by_rescoring(a, eps, 6, seed)
                assert (got.status, got.witness, got.samples) == want
                checked += 1
                violated += got.status == VIOLATED
    assert checked >= 60 and 0 < violated < checked


def test_rich_descent_scores_each_swap_as_the_full_rescore():
    from grplab.regularity import _descend, _internal_products

    g = build_group("PSL2(7)")
    a = make_set(g, "random:0.4,5")
    prod = _internal_products(a)
    k = a.card
    rng = np.random.default_rng(5)
    for size, count in ((3, 20), (8, 20), (20, 6)):
        for _ in range(count):
            combo = sorted(rng.choice(k, size, replace=False).tolist())
            end = _descend(list(combo), prod)
            score = _violation_score(combo, prod)
            # the same descent, scored by full rescans
            while score > 0:
                trials = (
                    sorted(combo[:oi] + combo[oi + 1:] + [c])
                    for oi in range(len(combo))
                    for c in range(k)
                    if c not in combo
                )
                combo = next((t for t in trials if _violation_score(t, prod) < score), None)
                if combo is None:
                    break
                score = _violation_score(combo, prod)
            assert end == combo


# --- nonabelian witnesses and re-validation ----------------------------------


def _seeded_triples(g, count, seed):
    from grplab.rng import SplitMix64, derive

    stream = SplitMix64(derive(seed, g.order))
    for _ in range(count):
        yield [
            GroupSubset.from_indices(g, sorted(stream.sample_indices(g.order, 1 + stream.randrange(6))))
            for _ in range(3)
        ]


def _sss_scalar(g, sub):
    inv = g.inverse_table
    pair = {g.mul(x, int(inv[y])) for x in sub for y in sub}
    return frozenset(g.mul(p, z) for p in pair for z in sub)


def _regular_sampled_scalar(a, b, c, eps, trials, seed):
    """The scalar sampled loop: the same draws, each triple's S S^-1 S
    values built and tested one product at a time."""
    from grplab.rng import SplitMix64, derive

    g = a.group
    if min(a.card, b.card, c.card) == 0:
        return NO_VIOLATION_FOUND, 0, None
    rng = SplitMix64(derive(seed, 0x3E6))
    sizes = [_ceil_frac(eps.numerator * s.card, eps.denominator) for s in (a, b, c)]
    pools = [s.to_index_list() for s in (a, b, c)]
    for _ in range(trials):
        subs = [
            tuple(sorted(pool[i] for i in rng.sample_indices(len(pool), size)))
            for pool, size in zip(pools, sizes)
        ]
        ta, tb, tc = (_sss_scalar(g, sub) for sub in subs)
        if not any(g.mul(x, y) in tc for x in ta for y in tb):
            return VIOLATED, None, tuple(subs)
    return NO_VIOLATION_FOUND, trials, None


NONABELIAN = ["perm:(1 2 3 4);(1 2)", "PSL2(5)", "perm:(1 2 3);(1 2)(3 4)"]


@pytest.mark.parametrize("spec", NONABELIAN)
def test_regular_position_exact_matches_oracle_on_nonabelian_groups(spec):
    g = fleet_group(spec)
    found = set()
    for a, b, c in _seeded_triples(g, 30, 9091):
        for eps in (Fraction(1, 2), Fraction(1)):
            got = check_regular_position(a, b, c, eps)
            assert (got.status, got.witness) == _regular_oracle(a, b, c, eps)
            found.add(got.status)
    assert found == {VERIFIED_EXACT, VIOLATED}


@pytest.mark.parametrize("spec", NONABELIAN)
def test_regular_position_sampled_matches_the_scalar_loop(spec):
    g = fleet_group(spec)
    found = set()
    for t, (a, b, c) in enumerate(_seeded_triples(g, 40, 5077)):
        for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            got = check_regular_position(a, b, c, eps, mode="sampled", trials=30, seed=t)
            assert (got.status, got.samples, got.witness) == _regular_sampled_scalar(a, b, c, eps, 30, t)
            found.add(got.status)
    assert found == {NO_VIOLATION_FOUND, VIOLATED}


def test_regular_witness_is_rechecked_on_the_set_layer(monkeypatch):
    import grplab.regularity as regularity

    z3 = build_group("Z/3")
    g3 = GroupSubset.full(z3)
    # (G G^-1 G)(G G^-1 G) meets G, so no triple of subsets misses
    monkeypatch.setattr(regularity, "_first_miss", lambda *args: (0, 0, 0))
    with pytest.raises(AssertionError, match="re-validation"):
        check_regular_position(g3, g3, g3, Fraction(1, 2))


def test_product_rich_witness_is_rechecked_on_the_set_layer(monkeypatch):
    import grplab.regularity as regularity

    z5 = build_group("Z/5")
    a = GroupSubset.full(z5)
    # with no internal product recorded, the first subset looks product-free
    # though it holds 0 * 0 = 0
    monkeypatch.setattr(regularity, "_internal_products", lambda a: [[-1] * a.card for _ in range(a.card)])
    for mode in ("exact", "sampled"):
        with pytest.raises(AssertionError, match="re-validation"):
            check_product_rich(a, Fraction(1, 2), mode=mode, trials=5)


def test_sampled_regular_position_on_slow_growing_sets_stays_small():
    import time

    # S S^-1 of a 1000-element subset of an interval has about 4000 values,
    # far below the 10^6 pairs, so each drawn value must not cost s^3 products
    a = make_set(build_group("Z/100000"), "interval:0,2000")
    start = time.monotonic()
    got, peak = traced_peak(lambda: check_regular_position(a, a, a, Fraction(1, 2), mode="sampled", trials=3))
    assert got.to_dict() == {"status": NO_VIOLATION_FOUND, "samples": 3}
    assert time.monotonic() - start < 10
    assert peak < 40 * 2**20


@pytest.mark.parametrize("eps", ["1/0", "abc", "", None, [1], float("inf"), float("nan"), 0, "3/2", -1])
def test_a_malformed_or_out_of_range_eps_is_refused(eps):
    with pytest.raises(MalformedSpec, match=r"epsilon must be in \(0, 1\]"):
        _as_fraction(eps)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_negative_trials_are_refused(mode):
    a = make_set(build_group("Z/7"), "explicit:1,2")
    with pytest.raises(MalformedSpec, match="trials must be >= 0, got -3"):
        check_product_rich(a, "1/2", mode, trials=-3)
    with pytest.raises(MalformedSpec, match="trials must be >= 0, got -3"):
        check_regular_position(a, a, a, "1/2", mode, trials=-3)
