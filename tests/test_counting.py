from __future__ import annotations

import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLEET_SPECS, RULE_GROUPS, fleet_group, pair_rule, rule_sets, traced_peak
from grplab import counting
from grplab.counting import (
    FiberFunction,
    _Factor,
    _product_counts,
    _torsion_free,
    all_nonempty_subsets,
    convolution_identity_check,
    count_ap3,
    count_fiber_equation,
    count_mixing_tuples,
    count_power_equation,
    count_xy_eq_z,
    cyclic_convolution,
)
from grplab.errors import (
    BudgetExceeded,
    DomainMismatch,
    EngineUnsupported,
    GroupMismatch,
    MalformedSpec,
    PointwiseIdentityFailed,
)
from grplab.groups import build_group, element_order
from grplab.rng import SplitMix64, derive
from grplab.sets import GroupSubset, doubling_constant, make_set, product_set


def _random_subset(group, density, seed):
    stream = SplitMix64(seed)
    return GroupSubset.from_indices(
        group, [i for i in range(group.order) if stream.uniform() < density]
    )


# --- xy = z ------------------------------------------------------------------


def test_xyz_example_z5():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [0, 1, 2])
    rep = count_xy_eq_z(a, a, a, "brute")
    assert rep.count == 6
    assert rep.normalizer == Fraction(27, 5)
    assert rep.degenerate_count == 1


def test_xyz_full_group(any_fleet_group):
    g = any_fleet_group
    full = GroupSubset.full(g)
    rep = count_xy_eq_z(full, full, full)
    assert rep.count == g.order**2
    assert rep.ratio == pytest.approx(1.0)


def test_xyz_empty_when_c_misses_products():
    z7 = build_group("Z/7")
    a = GroupSubset.from_indices(z7, [1, 2])
    prod = {(x + y) % 7 for x in (1, 2) for y in (1, 2)}
    c = GroupSubset.from_indices(z7, [i for i in range(7) if i not in prod])
    assert count_xy_eq_z(a, a, c).count == 0


def test_xyz_requires_same_group():
    a = GroupSubset.full(build_group("Z/4"))
    b = GroupSubset.full(build_group("Z/8"))
    with pytest.raises(GroupMismatch):
        count_xy_eq_z(a, a, b)


def test_fft_engine_rejects_nonabelian(s3):
    full = GroupSubset.full(s3)
    with pytest.raises(EngineUnsupported):
        count_xy_eq_z(full, full, full, "fft")


@pytest.mark.parametrize(
    "spec", ["Z/30", "Z/4 x Z/5", "Z/2 x Z/3 x Z/5", "perm:(1 2 3);(1 2)", "PSL2(5)"]
)
def test_engine_agreement_seeded(spec):
    g = build_group(spec)
    for trial in range(6):
        seeds = [derive(101, hash(spec) & 0xFFFF, trial, t) for t in range(3)]
        a, b, c = (_random_subset(g, 0.4, s) for s in seeds)
        brute = count_xy_eq_z(a, b, c, "brute").count
        cayley = count_xy_eq_z(a, b, c, "cayley").count
        assert brute == cayley
        if g.cyclic_moduli is not None:
            assert count_xy_eq_z(a, b, c, "fft").count == brute


def test_fiber_decomposition_invariant():
    # count equals the sum over c of |{(a,b): ab=c}| computed per fiber
    g = build_group("Z/2 x Z/5")
    a, b, c = (_random_subset(g, 0.5, s) for s in (11, 22, 33))
    total = count_xy_eq_z(a, b, c).count
    per_fiber = 0
    for z in c.to_index_list():
        per_fiber += sum(
            1 for x in a.to_index_list() for y in b.to_index_list() if g.mul(x, y) == z
        )
    assert total == per_fiber


def test_fft_engine_on_large_cyclic_group():
    g = build_group("Z/50000")
    a = _random_subset(g, 0.004, 41)
    b = _random_subset(g, 0.004, 42)
    c = _random_subset(g, 0.004, 43)
    fft = count_xy_eq_z(a, b, c, "fft")
    cayley = count_xy_eq_z(a, b, c, "cayley")
    assert fft.count == cayley.count
    assert fft.engine == "AbelianFFT"


def test_cyclic_convolution_exact_fallback_agrees():
    g = build_group("Z/6 x Z/7")
    a = _random_subset(g, 0.35, 5)
    b = _random_subset(g, 0.45, 6)
    fft = cyclic_convolution(g, a.mask.astype(np.int64), b.mask.astype(np.int64))
    # direct definition of the convolution
    want = np.zeros(g.order, dtype=np.int64)
    for x in a.to_index_list():
        for y in b.to_index_list():
            want[g.mul(x, y)] += 1
    assert np.array_equal(fft, want)


def _convolution_oracle(g, fa, fb):
    want = np.zeros(g.order, dtype=np.int64)
    for x in np.nonzero(fa)[0].tolist():
        for y in np.nonzero(fb)[0].tolist():
            want[g.mul(x, y)] += int(fa[x]) * int(fb[y])
    return want


def test_cyclic_convolution_fallback_is_weighted(monkeypatch):
    # a residual limit below 0 sends every call to the exact fallback
    monkeypatch.setattr(counting, "_FFT_RESIDUAL_LIMIT", -1.0)
    z6 = build_group("Z/6")
    fa = np.array([2, 0, 0, 0, 0, 0], dtype=np.int64)
    fb = np.array([0, 1, 1, 1, 0, 0], dtype=np.int64)
    assert cyclic_convolution(z6, fa, fb).tolist() == [0, 2, 2, 2, 0, 0]
    assert cyclic_convolution(z6, fb, fa).tolist() == [0, 2, 2, 2, 0, 0]
    g = build_group("Z/6 x Z/7")
    stream = SplitMix64(8)
    for _ in range(3):
        fa = np.array(stream.randrange_array(4, g.order), dtype=np.int64)
        fb = np.array(stream.randrange_array(3, g.order), dtype=np.int64) * (np.arange(g.order) % 5 == 0)
        assert np.array_equal(cyclic_convolution(g, fa, fb), _convolution_oracle(g, fa, fb))


@pytest.mark.parametrize("spec, density", [("Z/3 x Z/5 x Z/7", 0.5), ("Z/2 x Z/2 x Z/51", 0.5), ("Z/20011", 0.006)])
def test_cyclic_convolution_on_an_odd_last_axis(spec, density, monkeypatch):
    # the real-input FFT halves the last axis; an odd one must come back
    # whole, and without a warning.  A short axis would fail the residual
    # test and be hidden by the exact fallback, so the fallback must not run.
    def no_fallback(*args, **kwargs):
        raise AssertionError("exact fallback ran")

    monkeypatch.setattr(np, "roll", no_fallback)
    g = build_group(spec)
    rng = np.random.default_rng(g.order)
    fa, fb = rng.integers(1, 1000, size=(2, g.order)) * (rng.random((2, g.order)) < density)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cyclic_convolution(g, fa, fb), _convolution_oracle(g, fa, fb))


def test_cyclic_convolution_bound_counts_the_weights():
    # entries near 2^61 are beyond float precision: the FFT result would be
    # rounded to whole numbers that are wrong, so the bound must refuse it
    z5 = build_group("Z/5")
    fa = np.array([3 << 40, 1, 0, 0, 0], dtype=np.int64)
    fb = np.array([(1 << 20) + 1, 0, 5, 0, 0], dtype=np.int64)
    assert np.array_equal(cyclic_convolution(z5, fa, fb), _convolution_oracle(z5, fa, fb))


# --- memory and transforms of the FFT engine --------------------------------

MB = 2**20


def _dense_sets(g, count, density=0.5):
    """``count`` seeded sets whose index arrays exist before any trace."""
    rng = np.random.default_rng(g.order)
    sets = [GroupSubset(g, rng.random(g.order) < density) for _ in range(count)]
    for s in sets:
        s.indices
    return sets


@pytest.fixture(scope="module")
def z200000_sets():
    g = build_group("Z/200000")
    return g, _dense_sets(g, 3)


@pytest.mark.parametrize(
    "operation, bound",
    [
        # an n-sized float64 array or complex half-spectrum is 1.5 MiB here:
        # two one-use sides peak at three of them (10.8 MB when the
        # histograms and both spectra outlived the transforms), ap3 with
        # its weights at three (12.2 MB), a self-product at two (10.7 MB)
        ("xyz", 6),
        ("ap3", 6),
        ("aa", 4.5),
    ],
)
def test_a_convolution_at_the_order_cap_holds_few_arrays_of_the_order(z200000_sets, operation, bound):
    g, (a, b, c) = z200000_sets
    run = {
        "xyz": lambda: count_xy_eq_z(a, b, c).engine,
        "ap3": lambda: count_ap3(a).engine,
        "aa": lambda: product_set(a, a).card,
    }[operation]
    got, peak = traced_peak(run)
    assert got == ("AbelianFFT" if operation != "aa" else g.order)
    assert peak < bound * MB, peak


def _count_transforms(monkeypatch):
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _real=real, _name=name, **kw: (
            calls.__setitem__(_name, calls[_name] + 1) or _real(*args, **kw)))
    return calls


@pytest.mark.parametrize("operation", ["ap3", "doubling", "product_set", "xyz", "product_counts"])
def test_a_self_product_is_one_factor_and_one_transform(operation, monkeypatch):
    g = build_group("Z/3000")
    a = make_set(g, "interval:0,700")
    want = {
        "ap3": lambda: count_ap3(a, "cayley").count,
        "doubling": lambda: Fraction(product_set(a, a).card, a.card),
        "product_set": lambda: product_set(a, a).to_index_list(),
        "xyz": lambda: count_xy_eq_z(a, a, a, "cayley").count,
        "product_counts": lambda: _product_counts(g, a.indices, a.indices, "cayley").tolist(),
    }[operation]()
    got = {
        "ap3": lambda: count_ap3(a).count,
        "doubling": lambda: doubling_constant(a),
        "product_set": lambda: product_set(a, a).to_index_list(),
        "xyz": lambda: count_xy_eq_z(a, a, a).count,
        "product_counts": lambda: _product_counts(g, a.indices, a.indices, "fft").tolist(),
    }[operation]
    calls = _count_transforms(monkeypatch)
    assert got() == want
    assert calls == {"rfftn": 1, "irfftn": 1}


@pytest.mark.parametrize("limit", [0, counting._FFT_RESIDUAL_LIMIT])
@pytest.mark.parametrize("spec", ["Z/12 x Z/35", "Z/3 x Z/5 x Z/7", "Z/600"])
def test_held_mirror_and_one_use_factors_stay_exact(spec, limit, monkeypatch):
    # a residual limit of 0 sends every product through its transforms and
    # then to the exact fallback, which must rebuild each histogram that
    # was dropped once its spectrum existed; at the usual limit a held
    # spectrum must come out of each product unchanged
    monkeypatch.setattr(counting, "_FFT_RESIDUAL_LIMIT", limit)
    g = build_group(spec)
    a, b, c = (_random_subset(g, 0.3, seed) for seed in (1, 2, 3))
    inverses = g.inverse_table[a.indices].astype(np.int64)

    def brute(left, right):
        return _product_counts(g, left, right, "brute")

    calls = _count_transforms(monkeypatch)
    f = _Factor(g, a.indices)
    # a mirror factor: A*A^-1 and A^-1*A, A^-1 read through A
    assert np.array_equal(_product_counts(g, f, f.inverse(), "fft"), brute(a.indices, inverses))
    assert np.array_equal(_product_counts(g, f.inverse(), f, "fft"), brute(inverses, a.indices))
    # a caller's factor reused after a product that owned its other side
    assert np.array_equal(_product_counts(g, f, b.indices, "fft"), brute(a.indices, b.indices))
    assert np.array_equal(_product_counts(g, c.indices, f, "fft"), brute(c.indices, a.indices))
    assert np.array_equal(_product_counts(g, f, f, "fft"), brute(a.indices, a.indices))
    assert np.array_equal(_product_counts(g, b.indices, b.indices, "fft"), brute(b.indices, b.indices))
    # and a mirror of a factor known only by its histogram
    h = _Factor(g, hist=np.bincount(b.indices, minlength=g.order) * 3)
    assert np.array_equal(cyclic_convolution(g, h.inverse(), f), 3 * brute(g.inverse_table[b.indices].astype(np.int64), a.indices))
    # A once, B and C once each in the products that owned them, B once as
    # a self-product and B's weighted histogram once
    assert calls == {"rfftn": 5, "irfftn": 7}


def test_a_mirror_product_forms_the_conjugate_in_its_output(z200000_sets):
    # A's spectrum is held; A^-1's conjugate is written into the product's
    # own array: 5.3 MB traced when the mirror kept a conjugate copy
    g, (a, _, _) = z200000_sets
    f = _Factor(g, a.indices)
    _product_counts(g, f, f)
    got, peak = traced_peak(lambda: _product_counts(g, f, f.inverse()))
    assert peak < 4.5 * MB, peak
    assert np.array_equal(got, _product_counts(g, a.indices, g.inverse_table[a.indices].astype(np.int64)))


@pytest.mark.parametrize("limit", [0, counting._FFT_RESIDUAL_LIMIT])
@pytest.mark.parametrize("spec", ["Z/12 x Z/35", "Z/3 x Z/5 x Z/7", "Z/600"])
def test_each_side_of_a_mirror_product_is_exact(spec, limit, monkeypatch):
    # a mirror against a one-use side, against a held factor, against
    # itself and against a second mirror of its base; limit 0 sends each
    # to the exact fallback
    monkeypatch.setattr(counting, "_FFT_RESIDUAL_LIMIT", limit)
    g = build_group(spec)
    a, b = (_random_subset(g, 0.3, seed) for seed in (4, 5))
    inv = g.inverse_table[a.indices].astype(np.int64)
    f = _Factor(g, a.indices)
    mirror = f.inverse()
    for left, right, want in [
        (mirror, b.indices, (inv, b.indices)),
        (b.indices, mirror, (b.indices, inv)),
        (mirror, f, (inv, a.indices)),
        (mirror, mirror, (inv, inv)),
        (mirror, f.inverse(), (inv, inv)),
    ]:
        assert np.array_equal(_product_counts(g, left, right, "fft"), _product_counts(g, *want, "brute"))
    # A's held spectrum came through every product unchanged
    assert np.array_equal(_product_counts(g, f, f, "fft"), _product_counts(g, a.indices, a.indices, "brute"))


# --- three-term progressions -------------------------------------------------


def test_ap3_example_z5():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [0, 1, 2])
    rep = count_ap3(a)
    assert (rep.count, rep.degenerate_count) == (5, 3)
    assert rep.normalizer == Fraction(9)


def test_ap3_full_group_and_identity_singleton(any_fleet_group):
    g = any_fleet_group
    assert count_ap3(GroupSubset.full(g)).count == g.order**2
    rep = count_ap3(GroupSubset.from_indices(g, [0]))
    assert (rep.count, rep.degenerate_count) == (1, 1)


def test_ap3_degenerate_count_is_the_set_size(any_fleet_group):
    # the pairs with y = identity are exactly (x, 1) for x in A
    g = any_fleet_group
    for seed in (1, 2):
        a = _random_subset(g, 0.4, seed)
        for engine in ("cayley", "brute"):
            assert count_ap3(a, engine).degenerate_count == a.card
    assert count_ap3(GroupSubset.from_indices(g, []), "cayley").degenerate_count == 0


@pytest.mark.parametrize("spec", ["Z/8", "perm:(1 2 3);(1 2)", "Z/3 x Z/3"])
def test_ap3_fast_matches_brute(spec):
    g = build_group(spec)
    for seed in (1, 2, 3):
        a = _random_subset(g, 0.5, seed)
        fast = count_ap3(a)
        brute = count_ap3(a, "brute")
        assert (fast.count, fast.degenerate_count) == (brute.count, brute.degenerate_count)


NONABELIAN_FLEET = [s for s in FLEET_SPECS if not fleet_group(s).is_abelian] + ["PSL2(13)", "PSL2(29)"]


@pytest.mark.parametrize("spec", NONABELIAN_FLEET)
def test_ap3_word_matches_brute_and_the_pairwise_path(spec):
    # m x^-1 m as one word against its pairwise fold m (x^-1 m), and against
    # the scalar loop where the order allows it
    g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
    for seed, density in ((1, 0.3), (2, 0.6)):
        a = _random_subset(g, density if g.order < 1000 else 0.05, seed)
        ai = a.indices
        x_inv = g.inverse_table[ai]
        pairwise = 0
        for lo in range(0, len(ai), 16):
            ys = g.mul_arrays(x_inv[lo:lo + 16, None], ai[None, :])
            pairwise += int(np.count_nonzero(a.mask[g.mul_arrays(ai[None, :], ys)]))
        fast = counting._ap3_fast(g, a)
        assert fast == (pairwise, a.card)
        if g.order <= 1092:
            assert fast == counting._ap3_brute(g, a)


def test_ap3_interval_closed_form():
    # pairs (x, z) of equal parity inside the interval: ceil(m^2 / 2)
    z50 = build_group("Z/50")
    for m in (5, 8, 11):
        a = make_set(z50, f"interval:0,{m}")
        assert count_ap3(a).count == (m * m + 1) // 2


# --- power equations -----------------------------------------------------


def test_power_equation_example_z5():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [0, 1, 2])
    rep = count_power_equation(a, 1, 1, 2)
    assert rep.count == 5
    assert rep.degenerate_count == 3
    assert rep.extras["torsion_free"] is True


def test_power_equation_identity_singleton():
    z5 = build_group("Z/5")
    rep = count_power_equation(GroupSubset.from_indices(z5, [0]), 3, 4, 5)
    assert rep.count == 1


def test_power_111_equals_xyz():
    g = build_group("Z/7")
    a = _random_subset(g, 0.6, 17)
    assert count_power_equation(a, 1, 1, 1).count == count_xy_eq_z(a, a, a).count


def test_power_torsion_flag():
    z6 = build_group("Z/6")
    a = GroupSubset.from_indices(z6, [0, 3])  # 3 has order 2, dividing n3=2
    rep = count_power_equation(a, 1, 1, 2)
    assert rep.extras["torsion_free"] is False


@pytest.mark.parametrize("spec", FLEET_SPECS + ["perm:(1 2 3 4 5 6 7);(1 2)", "Z/20011"])
def test_torsion_check_matches_element_order_oracle(spec):
    g = fleet_group(spec)
    n = g.order
    pool = list(range(n)) if n <= 5040 else sorted({0, *SplitMix64(n).sample_indices(n, 8)})
    order = {i: element_order(g, i) for i in pool}
    for exponents in ((2, 3, 5), (2, 2, 4), (1, 1, 2)):
        bad = [i for i in pool if i != 0 and any(e % order[i] == 0 for e in exponents)]
        good = [i for i in pool if i not in set(bad)]
        assert _torsion_free(g, np.array(pool), exponents) == (not bad)
        assert _torsion_free(g, np.array(good), exponents)
        assert _torsion_free(g, np.array([0]), exponents)
        step = max(1, len(bad) // 64)
        for i in bad[::step]:
            assert not _torsion_free(g, np.array([i]), exponents)


def test_power_brute_agrees():
    g = build_group("perm:(1 2 3);(1 2)")
    a = _random_subset(g, 0.7, 23)
    assert (
        count_power_equation(a, 2, 1, 3).count
        == count_power_equation(a, 2, 1, 3, "brute").count
    )


def _power_oracle(g, elems, n1, n2, n3):
    return sum(
        1
        for x in elems
        for y in elems
        for z in elems
        if g.mul(g.pow(x, n1), g.pow(y, n2)) == g.pow(z, n3)
    )


def test_power_equation_matches_triple_enumeration():
    g = build_group("Z/9")
    a = GroupSubset.from_indices(g, [0, 1, 2, 4, 7])
    rep = count_power_equation(a, 2, 3, 5)
    assert rep.count == _power_oracle(g, a.to_index_list(), 2, 3, 5)


def test_ap3_equals_role_switched_power_equation():
    # over odd-order abelian groups, (x, y, z) with x+z = 2y matches the
    # x + y = 2z count after switching the roles of y and z
    for p in (5, 7, 11):
        g = build_group(f"Z/{p}")
        a = GroupSubset.from_indices(g, [0, 1, 2])
        ap = count_ap3(a)
        pw = count_power_equation(a, 1, 1, 2)
        assert ap.count == pw.count
        assert ap.count - ap.degenerate_count == pw.count - pw.degenerate_count


@pytest.mark.parametrize(
    "spec, density, exponents",
    [
        ("Z/2 x Z/1000", 0.05, [(1, 1, 2), (2, 3, 5), (2, 2, 2)]),  # has involutions
        ("Z/3 x Z/9 x Z/27", 0.1, [(1, 1, 2), (2, 3, 5), (3, 3, 3)]),
        (" x ".join(["Z/2"] * 12), 0.01, [(2, 2, 2)]),  # every square is the identity
        ("Z/20001", 0.002, [(1, 1, 2), (2, 3, 5)]),
    ],
)
def test_ap3_and_power_engines_agree(spec, density, exponents):
    g = build_group(spec)
    assert g.cyclic_moduli is not None
    for seed in (1, 2):
        a = make_set(g, f"random:{density},{seed}")
        reports = [count_ap3(a, engine) for engine in ("brute", "cayley", "fft")]
        assert [r.engine for r in reports] == ["BruteForce", "CayleyConvolution", "AbelianFFT"]
        assert len({(r.count, r.degenerate_count) for r in reports}) == 1
        for n1, n2, n3 in exponents:
            reports = [count_power_equation(a, n1, n2, n3, e) for e in ("brute", "cayley", "fft")]
            assert len({(r.count, r.degenerate_count, r.extras["torsion_free"]) for r in reports}) == 1


def test_ap3_and_power_fft_refused_off_cyclic_products(s3):
    full = GroupSubset.full(s3)
    with pytest.raises(EngineUnsupported, match="AbelianFFT needs a cyclic product group"):
        count_ap3(full, "fft")
    with pytest.raises(EngineUnsupported, match="AbelianFFT needs a cyclic product group"):
        count_power_equation(full, 1, 1, 2, "fft")


def test_empty_set_reports_the_engine_that_ran():
    g = build_group("Z/2000")
    empty = GroupSubset.from_indices(g, [])
    for engine, name in (("brute", "BruteForce"), ("cayley", "CayleyConvolution"), ("fft", "AbelianFFT")):
        for rep in (count_power_equation(empty, 1, 1, 2, engine), count_ap3(empty, engine)):
            assert (rep.count, rep.degenerate_count, rep.engine) == (0, 0, name)
    f = FiberFunction.from_values(empty, [])
    rep = count_fiber_equation(f, f, f)
    assert (rep.count, rep.degenerate_count, rep.normalizer) == (0, 0, 0)


# --- fiber equations -------------------------------------------------------


def test_fiber_identity_on_subgroup():
    # with the identity map the pointwise identity a*a = a only holds at the
    # identity element, so the required fraction must be relaxed; the triple
    # count is still |A|^2 by subgroup closure
    z12 = build_group("Z/12")
    h = make_set(z12, "subgroup:3")
    f = FiberFunction.from_callable(h, lambda x: x)
    rep = count_fiber_equation(f, f, f, min_identity_fraction=Fraction(1, h.card))
    assert rep.count == h.card**2
    assert rep.degenerate_count == 1


def test_fiber_reproduces_power_equation():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [0, 1, 2])
    fs = [FiberFunction.from_callable(a, lambda x, n=n: z5.pow(x, n)) for n in (1, 1, 2)]
    rep = count_fiber_equation(fs[0], fs[1], fs[2])
    assert rep.count == count_power_equation(a, 1, 1, 2).count == 5


def test_fiber_bound_is_validated():
    z6 = build_group("Z/6")
    a = GroupSubset.full(z6)
    with pytest.raises(DomainMismatch):
        FiberFunction.from_callable(a, lambda x: 0, fiber_bound=2)
    f = FiberFunction.from_callable(a, lambda x: x % 2)
    assert f.fiber_bound == 3


def test_fiber_domain_mismatch():
    z6 = build_group("Z/6")
    f1 = FiberFunction.from_callable(GroupSubset.full(z6), lambda x: x)
    f2 = FiberFunction.from_callable(GroupSubset.from_indices(z6, [0, 1]), lambda x: x)
    with pytest.raises(DomainMismatch):
        count_fiber_equation(f1, f1, f2)


def test_fiber_pointwise_identity_enforcement():
    z5 = build_group("Z/5")
    a = GroupSubset.from_indices(z5, [0, 1, 2])
    f_id = FiberFunction.from_callable(a, lambda x: x)
    f_wrong = FiberFunction.from_callable(a, lambda x: (x + 1) % 5)
    with pytest.raises(PointwiseIdentityFailed):
        count_fiber_equation(f_id, f_id, f_wrong)
    # x + x = x + 1 holds exactly at x = 1, so a relaxed fraction passes
    rep = count_fiber_equation(f_id, f_id, f_wrong, min_identity_fraction=Fraction(1, 3))
    assert rep.degenerate_count == 1


# --- mixing tuples ---------------------------------------------------------


def test_mixing_n2_full_group():
    z6 = build_group("Z/6")
    full = GroupSubset.full(z6)
    rep = count_mixing_tuples(2, {f: full for f in all_nonempty_subsets(2)})
    assert rep.count == 36
    assert rep.normalizer == Fraction(36)
    assert rep.ratio == pytest.approx(1.0)


def test_mixing_n2_equals_xyz():
    g = build_group("Z/2 x Z/4")
    a1, a2, a12 = (_random_subset(g, 0.5, s) for s in (4, 5, 6))
    rep = count_mixing_tuples(2, {(1,): a1, (2,): a2, (1, 2): a12})
    assert rep.count == count_xy_eq_z(a1, a2, a12).count


def test_mixing_z4_subgroup_example():
    z4 = build_group("Z/4")
    h = GroupSubset.from_indices(z4, [0, 2])
    sets = {f: h for f in all_nonempty_subsets(3)}
    rep = count_mixing_tuples(3, sets)
    assert rep.count == 8
    assert rep.normalizer == Fraction(1, 2)
    assert rep.ratio == pytest.approx(16.0)
    assert rep.degenerate_count == 1


@pytest.mark.parametrize("n", [2, 3])
def test_mixing_prefix_matches_brute(n):
    g = build_group("perm:(1 2 3);(1 2)")
    sets = {
        f: _random_subset(g, 0.6, derive(9, n, *f)) for f in all_nonempty_subsets(n)
    }
    fast = count_mixing_tuples(n, sets)
    brute = count_mixing_tuples(n, sets, "brute")
    assert fast.count == brute.count


def test_mixing_n4_nonabelian_matches_brute():
    g = build_group("perm:(1 2 3);(1 2)")
    sets = {
        f: _random_subset(g, 0.7, derive(77, *f)) for f in all_nonempty_subsets(4)
    }
    fast = count_mixing_tuples(4, sets)
    brute = count_mixing_tuples(4, sets, "brute")
    assert fast.count == brute.count


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_prefix_walk_matches_the_filtered_product(any_fleet_group, length):
    g = any_fleet_group
    stream = SplitMix64(derive(25, g.order, length))
    # per position, up to six candidates in a seeded order; per subset, a mask
    lists = [[int(a) for a in stream.randrange_array(g.order, 6)] for _ in range(length)]
    masks = [stream.randrange_array(4, g.order) > 0 for _ in range((1 << length) - 1)]
    tried = []

    def choices(i):
        for a in lists[i - 1]:
            tried.append((i, a))
            yield a

    def inside(k, v):
        return masks[k][v]

    expect = []
    for tup in itertools.product(*lists):
        prods = counting._subproducts(g.mul, tup)
        if all(inside(k, v) for k, v in enumerate(prods)):
            expect.append((tup, prods))
    walk = counting._prefixes(g.mul, choices, inside, length)
    assert [(prefix, list(prods)) for prefix, prods in walk] == expect
    tried.clear()
    first = next(counting._prefixes(g.mul, choices, inside, length), None)
    assert (None if first is None else first[0]) == (expect[0][0] if expect else None)
    if expect and length:
        # the walk stops at its first tuple: no later candidate is tried
        assert tried[-1] == (length, expect[0][0][-1])


def _mixing_family(g, n, empty):
    """Seeded targets of density 0.6, except A_F for F = ``empty``."""
    sets = {f: _random_subset(g, 0.6, derive(41, g.order, n, *f)) for f in all_nonempty_subsets(n)}
    if empty is not None:
        sets[empty] = GroupSubset.empty(g)
    return sets


# (n, empty target): with A_{n-1} or A_n empty, one side of the last pair
# count, X or Y, is empty for every prefix; at n = 4 the random targets
# leave X (density about 0.6^4 of 24) empty for many prefixes.  The n = 4
# brute count takes seconds, so only the random family runs there.
MIXING_FAMILIES = [(2, None), (2, (1,)), (2, (2,)), (3, None), (3, (2,)), (3, (3,)), (4, None)]


@pytest.mark.parametrize("spec", ["perm:(1 2 3 4);(1 2)", "Z/6 x Z/4"])
@pytest.mark.parametrize("n, empty", MIXING_FAMILIES)
def test_mixing_prefix_matches_brute_with_empty_sides(spec, n, empty):
    g = build_group(spec)
    sets = _mixing_family(g, n, empty)
    fast = count_mixing_tuples(n, sets)
    assert fast.count == count_mixing_tuples(n, sets, "brute").count
    assert (fast.count == 0) == (empty is not None) and fast.engine == "CayleyConvolution"


def test_fiber_equation_matches_triple_oracle():
    g = build_group("Z/9")
    a = GroupSubset.from_indices(g, [0, 1, 3, 4, 7])
    stream_vals = [ (3 * x + 1) % 9 for x in a.to_index_list() ]
    f1 = FiberFunction.from_values(a, stream_vals)
    f2 = FiberFunction.from_callable(a, lambda x: (2 * x) % 9)
    f3 = FiberFunction.from_callable(a, lambda x: (5 * x + 1) % 9)
    rep = count_fiber_equation(f1, f2, f3, min_identity_fraction=0)
    elems = a.to_index_list()
    maps = [dict(zip(elems, f.mapping)) for f in (f1, f2, f3)]
    want = sum(
        1
        for x in elems
        for y in elems
        for z in elems
        if g.mul(maps[0][x], maps[1][y]) == maps[2][z]
    )
    assert rep.count == want


def test_mixing_n4_sanity():
    z3 = build_group("Z/3")
    full = GroupSubset.full(z3)
    sets = {f: full for f in all_nonempty_subsets(4)}
    rep = count_mixing_tuples(4, sets)
    assert rep.count == 3**4
    assert count_mixing_tuples(4, sets, "brute").count == 3**4


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x Z/6", "Z/3 x Z/5"])
@pytest.mark.parametrize("n", [2, 3])
def test_mixing_engines_agree_on_cyclic_products(spec, n):
    g = build_group(spec)
    for seed in range(3):
        sets = {f: _random_subset(g, 0.6, derive(23, seed, n, *f)) for f in all_nonempty_subsets(n)}
        reports = [count_mixing_tuples(n, sets, engine) for engine in ("brute", "cayley", "fft")]
        assert [r.engine for r in reports] == ["BruteForce", "CayleyConvolution", "AbelianFFT"]
        assert len({(r.count, r.degenerate_count, r.normalizer) for r in reports}) == 1


def test_mixing_2_is_the_xyz_count_on_a_large_cyclic_group():
    g = build_group("Z/2000")
    a1, a2, a12 = (make_set(g, f"random:0.3,{seed}") for seed in (1, 2, 3))
    rep = count_mixing_tuples(2, {(1,): a1, (2,): a2, (1, 2): a12})
    xyz = count_xy_eq_z(a1, a2, a12)
    assert (rep.count, rep.engine) == (xyz.count, xyz.engine) == (xyz.count, "AbelianFFT")
    assert rep.count == count_xy_eq_z(a1, a2, a12, "cayley").count


def test_mixing_fft_refused_off_cyclic_products():
    g = build_group("PSL2(5)")
    a = make_set(g, "random:0.5,3")
    with pytest.raises(EngineUnsupported, match="AbelianFFT needs a cyclic product group, not PSL2"):
        count_mixing_tuples(2, {f: a for f in all_nonempty_subsets(2)}, "fft")


@pytest.mark.parametrize("n", [1, 0, -3])
def test_mixing_refuses_n_below_two(n):
    z4 = build_group("Z/4")
    with pytest.raises(MalformedSpec, match=f"mixing tuples need n >= 2, got {n}"):
        count_mixing_tuples(n, {(1,): GroupSubset.full(z4)})


@pytest.mark.parametrize("step", [0, 1], ids=["below", "above"])
@pytest.mark.parametrize("spec", RULE_GROUPS)
def test_every_auto_pair_count_follows_the_pair_rule(spec, step, monkeypatch, capsys):
    from grplab.cli import main
    from grplab.ramsey import Coloring, _schur_count_of_mask, schur_counts

    g, card, (a, b, c) = rule_sets(spec, step)
    want = pair_rule(g, card * card)
    assert counting._resolve_engine(g, "auto", card * card) == want
    # the brute engine only where its Python loop stays short
    engines = ("auto", "cayley", "brute") if card * card <= 200_000 else ("auto", "cayley")
    xyz = [count_xy_eq_z(a, b, c, e) for e in engines]
    power = [count_power_equation(a, 1, 1, 2, e) for e in engines]
    ap3 = [count_ap3(a, e) for e in engines if e != "brute" or g.order <= 2000]
    for reports in (xyz, power, ap3):
        assert reports[0].engine == want
        assert len({(r.count, r.degenerate_count) for r in reports}) == 1

    # f1(x) f2(x) = f3(x) with f1 = f2 the identity and f3 the square is x*y = z^2
    f, sq = (FiberFunction.from_values(a, v) for v in (a.indices, g.pow_arrays(a.indices, 2)))
    fiber = count_fiber_equation(f, f, sq)
    assert (fiber.engine, fiber.count) == (want, power[1].count)

    if g.order**2 <= counting.MIXING_BUDGET:
        mixing = count_mixing_tuples(2, {(1,): a, (2,): b, (1, 2): c})
        assert (mixing.engine, mixing.count) == (want, xyz[1].count)

    coloring = Coloring(g, np.where(a.mask, 0, 1), 2)
    per_color = schur_counts(coloring).per_color
    assert [r.engine for r in per_color] == [want, pair_rule(g, (g.order - card) ** 2)]
    assert per_color[0].count == _schur_count_of_mask(g, a.mask) == count_xy_eq_z(a, a, a, "cayley").count

    asked = []
    resolve = counting._resolve_engine
    monkeypatch.setattr(counting, "_resolve_engine", lambda *args: asked.append(args[1:]) or resolve(*args))
    identity = convolution_identity_check(a, b)
    # the product set X Y^-1, then the pairs (t, y) in X Y^-1 x Y
    assert identity.ok and asked == [("auto", card * card), ("auto", identity.translate_count * card)]

    explicit = "explicit:" + ",".join(map(str, a.indices.tolist()))
    for equation, report in (("ap3", ap3[1]), ("power:1,1,2", power[1])):
        assert main(["count", "--group", spec, "--sets", explicit, "--equation", equation]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["engine"], out["count"]) == (want, report.count)


def test_mixing_budget_guard():
    g = build_group("Z/2000")
    full = GroupSubset.full(g)
    with pytest.raises(BudgetExceeded):
        count_mixing_tuples(4, {f: full for f in all_nonempty_subsets(4)})


def test_mixing_missing_subset_rejected():
    z4 = build_group("Z/4")
    h = GroupSubset.from_indices(z4, [0, 2])
    with pytest.raises(GroupMismatch):
        count_mixing_tuples(2, {(1,): h, (2,): h})


# --- the |X x Y| identity --------------------------------------------------


def test_convolution_identity_trivial():
    z4 = build_group("Z/4")
    ident = GroupSubset.from_indices(z4, [0])
    res = convolution_identity_check(ident, ident)
    assert res.lhs == res.rhs == 1


def test_convolution_identity_example():
    z4 = build_group("Z/4")
    x = GroupSubset.from_indices(z4, [0, 1])
    y = GroupSubset.from_indices(z4, [0, 2])
    res = convolution_identity_check(x, y)
    assert res.lhs == res.rhs == 4
    assert res.translate_count == 4


@pytest.mark.parametrize("spec", ["Z/12", "perm:(1 2 3);(1 2)", "PSL2(5)", "Z/3 x Z/4"])
def test_convolution_identity_random(spec):
    g = build_group(spec)
    for trial in range(10):
        x = _random_subset(g, 0.4, derive(3, trial, 0))
        y = _random_subset(g, 0.4, derive(3, trial, 1))
        res = convolution_identity_check(x, y)
        assert res.ok, (spec, trial, res)
