"""The one-pass set statistics of ``grplab stats`` and the growth-profile recipe.

``sets.set_statistics`` forms A*A once and, on a cyclic product, transforms
each set once.  Its oracle is the separate public calls, with the growth
profile taken by the full loop of product sets; the conjugate spectrum of
A^-1 is checked against the brute engine, and the early stop of the growth
walk against the full loop.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLEET_SPECS, fleet_group, traced_peak
from grplab import counting
from grplab.cli import main
from grplab.counting import ENGINE_CAYLEY, ENGINE_FFT, _Factor, _product_counts
from grplab.errors import EmptySet, MalformedSpec
from grplab.groups import build_group
from grplab.lab import ExperimentConfig, run_recipe
from grplab.sets import (
    GroupSubset,
    doubling_constant,
    growth_profile,
    inverse_set,
    is_product_free,
    iterated_product,
    make_set,
    product_set,
    set_statistics,
    symmetrize,
    tripling_constant,
)

# odd and even last moduli; the largest takes the FFT under ``auto`` from
# about 2% density
CYCLIC_SPECS = ["Z/4 x Z/9", "Z/3 x Z/10", "Z/2 x Z/2 x Z/5000"]


def _full_profile(a, m_max):
    """|S^m| / |a| for m = 1..m_max by the full loop of product sets."""
    s = symmetrize(a)
    acc, out = s, [Fraction(s.card, a.card)]
    for _ in range(m_max - 1):
        acc = product_set(acc, s)
        out.append(Fraction(acc.card, a.card))
    return out


def _separate_calls(a, m_max):
    """The figures by one product chain each, as ``stats`` formed them before
    the one pass."""
    if not a.card:
        return (None, None, None, [], is_product_free(a))
    aaa = product_set(product_set(a, a), a)
    aia = product_set(product_set(a, inverse_set(a)), a)
    want = (
        Fraction(product_set(a, a).card, a.card),
        Fraction(aaa.card, a.card),
        Fraction(aia.card, a.card),
        _full_profile(a, m_max),
        is_product_free(a),
    )
    assert want[:3] == (doubling_constant(a), tripling_constant(a, "aaa"), tripling_constant(a, "aia"))
    return want


def _sets(g, densities=(0.05, 0.3, 0.8)):
    rng = np.random.default_rng(g.order)
    return [GroupSubset(g, rng.random(g.order) < d) for d in densities]


def _force(monkeypatch, engine):
    monkeypatch.setattr(counting, "_resolve_engine", lambda *_: engine)


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_one_pass_matches_the_separate_calls_on_the_fleet(spec):
    g = fleet_group(spec)
    for a in _sets(g) + [GroupSubset.from_indices(g, [0]), GroupSubset.full(g)]:
        assert tuple(set_statistics(a, 4)) == _separate_calls(a, 4)


@pytest.mark.parametrize("engine", [None, ENGINE_FFT], ids=["auto", "fft"])
@pytest.mark.parametrize("spec", CYCLIC_SPECS)
def test_one_pass_matches_the_separate_calls_on_cyclic_products(spec, engine, monkeypatch):
    # the oracle runs under ``auto``: a scan on the small groups, mostly the
    # FFT on the largest
    g = build_group(spec)
    sets = _sets(g) + [make_set(g, "interval:0,7")]
    want = [_separate_calls(a, 5) for a in sets]
    if engine is not None:
        _force(monkeypatch, engine)
    assert [tuple(set_statistics(a, 5)) for a in sets] == want


def test_one_pass_matches_on_the_exact_fallback(monkeypatch):
    g = build_group("Z/3 x Z/10")
    sets = _sets(g)
    with monkeypatch.context() as patch:
        _force(patch, ENGINE_CAYLEY)
        want = [_separate_calls(a, 4) for a in sets]
    rolls = []
    real_roll = np.roll
    monkeypatch.setattr(np, "roll", lambda *args, **kw: rolls.append(1) or real_roll(*args, **kw))
    monkeypatch.setattr(counting, "_FFT_RESIDUAL_LIMIT", 0)
    _force(monkeypatch, ENGINE_FFT)
    assert [tuple(set_statistics(a, 4)) for a in sets] == want
    assert rolls


def test_one_pass_on_the_empty_set():
    g = build_group("Z/10")
    empty = GroupSubset.empty(g)
    assert tuple(set_statistics(empty, 3)) == (None, None, None, [], True)
    # the CLI reads an empty profile at any m_max, as before
    assert set_statistics(empty, 0).growth_profile == []
    with pytest.raises(EmptySet):
        growth_profile(empty, 3)
    with pytest.raises(MalformedSpec):
        set_statistics(GroupSubset.from_indices(g, [1]), 0)


def test_the_growth_recipe_still_refuses_an_empty_set():
    cfg = ExperimentConfig.from_dict({"recipe": "growth-profile", "groups": ["Z/10"], "sets": ["explicit:"]})
    with pytest.raises(EmptySet, match="growth profile of the empty set"):
        run_recipe(cfg)


@pytest.mark.parametrize("spec", ["Z/4 x Z/9", "Z/3 x Z/10", "Z/7 x Z/11"])
def test_the_inverse_factor_reads_the_conjugate_spectrum(spec, monkeypatch):
    g = build_group(spec)
    a = _sets(g, (0.3,))[0]
    inverses = g.inverse_table[a.indices].astype(np.int64)
    brute = _product_counts(g, a.indices, inverses, "brute")
    transforms = []
    real_rfftn = np.fft.rfftn
    monkeypatch.setattr(np.fft, "rfftn", lambda *args, **kw: transforms.append(1) or real_rfftn(*args, **kw))
    f = _Factor(g, a.indices)
    assert np.array_equal(_product_counts(g, f, f.inverse(), "fft"), brute)
    assert np.array_equal(_product_counts(g, f.inverse(), f, "fft"), _product_counts(g, inverses, a.indices, "brute"))
    # one transform for A; A^-1 has none of its own
    assert len(transforms) == 1
    assert np.array_equal(f.inverse().hist(), np.bincount(inverses, minlength=g.order))
    assert np.array_equal(product_set(a, inverse_set(a)).mask, brute > 0)


def _count_products(monkeypatch):
    calls = []
    real = counting._product_counts
    monkeypatch.setattr(counting, "_product_counts", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize(
    "spec, set_spec, m_max, products",
    [
        # a subgroup is stable at m = 1: one product shows it
        ("Z/1000", "subgroup:10", 6, 1),
        ("perm:(1 2 3 4);(1 2)", "subgroup:1", 6, 1),
        # [-9m, 9m] covers Z/1000 from m = 56 on: 55 products, none after
        ("Z/1000", "interval:0,10", 80, 55),
        # S^m fills the subgroup <10> of order 100 at m = 50, a proper
        # subgroup: the 50th product repeats S^50 and the walk stops
        ("Z/1000", "explicit:0,10", 70, 50),
    ],
)
def test_the_growth_walk_stops_once_the_powers_are_stable(spec, set_spec, m_max, products, monkeypatch):
    g = build_group(spec)
    a = make_set(g, set_spec)
    want = _full_profile(a, m_max)
    calls = _count_products(monkeypatch)
    assert growth_profile(a, m_max) == want
    assert len(calls) == products
    assert iterated_product(a, m_max).card == want[-1] * a.card


@pytest.mark.parametrize(
    "set_spec, transforms",
    [
        # the benchmark's stats job: A and S are each transformed once (A^-1
        # is A's conjugate) and three products inverted, A*A, A*A^-1 and
        # S*S.  All three are G, so A*A*A and A*A^-1*A are G with no
        # product, and the growth walk stops at S^2
        ("random:0.05,12345", {"rfftn": 2, "irfftn": 3}),
        # no product is G here: A, A*A, A*A^-1, S and S^2 are each
        # transformed once, and A*A, A*A*A, A*A^-1, A*A^-1*A, S^2 and S^3
        # inverted
        ("interval:0,5000", {"rfftn": 5, "irfftn": 6}),
    ],
)
def test_stats_on_a_cyclic_product_transforms_each_set_once(set_spec, transforms, monkeypatch):
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _real=real, _name=name, **kw: (
            calls.__setitem__(_name, calls[_name] + 1) or _real(*args, **kw)))
    argv = ["stats", "--group", "Z/2 x Z/2 x Z/50000", "--set", set_spec, "--m-max", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == transforms


def test_stats_at_the_order_cap_hold_few_arrays_of_the_order():
    # A's kept spectrum, the product in hand and its transform output: 7.7 MB
    # traced, 10.8 MB when every histogram outlived its spectrum
    g = build_group("Z/2 x Z/2 x Z/50000")
    a = make_set(g, "random:0.05,12345")
    a.indices
    got, peak = traced_peak(lambda: set_statistics(a, 3))
    assert got.doubling == Fraction(g.order, a.card)
    assert peak < 9 * 2**20, peak


@pytest.mark.parametrize(
    "spec, gap",
    [
        ("Z/10", "gap:3;1,1000000"),
        ("Z/12 x Z/10", "gap:5;13,7;29,200;0,4"),
        ("Z/100", "gap:7;-3,30;10,3;33,1"),
        ("Z/2 x Z/2 x Z/50", "gap:1;51,900;2,3"),
    ],
)
def test_gap_sets_cut_each_length_at_the_order_of_its_step(spec, gap):
    g = build_group(spec)
    base, *dims = gap[len("gap:"):].split(";")
    want = {int(base) % g.order}
    for dim in dims:
        step, length = (int(x) for x in dim.split(","))
        powers = [0]
        for _ in range(min(length, g.order) - 1):
            powers.append(g.mul(powers[-1], step % g.order))
        want = {g.mul(x, p) for x in want for p in powers}
    assert make_set(g, gap).to_index_list() == sorted(want)
