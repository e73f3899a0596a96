"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Every tolerance and scope is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from grplab.counting import count_ap3, count_power_equation, count_xy_eq_z
from grplab.groups import build_group
from grplab.lab import ExperimentConfig, run_recipe, sweep
from grplab.ramsey import (
    Coloring,
    TupleWitness,
    exhaustive_schur_minimum,
    hindman_greedy,
    monochromatic_tuple_search,
    schur_adversarial_search,
    schur_counts,
    validate_witness,
)
from grplab.regularity import VIOLATED, check_product_rich, check_regular_position
from grplab.rng import SplitMix64, derive
from grplab.sets import GroupSubset, doubling_constant, make_set
from grplab.spectral import character_degrees, quasirandomness_degree
from grplab.tuples import convolution_identity_check

MASTER_SEED = 20260808


# collected by the conftest terminal-summary hook so the one-line-per-criterion
# log shows at the end of any pytest run, captured or not
ACCEPTANCE_LINES: list = []


def _line(num: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    text = f"ACCEPTANCE {num:2d} {status} - {label}{extra}"
    ACCEPTANCE_LINES.append(text)
    print(text)


def _random_subset(group, density: float, seed: int) -> GroupSubset:
    stream = SplitMix64(seed)
    return GroupSubset(group, np.fromiter(
        (stream.uniform() < density for _ in range(group.order)), dtype=bool, count=group.order
    ))


# -- 1 ------------------------------------------------------------------------


def test_acceptance_01_engine_equivalence():
    label = "engine equivalence on 100+ seeded instances (<60s)"
    start = time.monotonic()
    stream = SplitMix64(derive(MASTER_SEED, 1))
    fixed = [build_group(s) for s in ("perm:(1 2 3);(1 2)", "perm:(1 2 3 4);(1 2)", "PSL2(5)")]
    checked = 0
    for i in range(102):
        kind = i % 3
        if kind == 0:
            group = build_group(f"Z/{2 + stream.randrange(1999)}")
        elif kind == 1:
            while True:
                factors = [2 + stream.randrange(13) for _ in range(2 + stream.randrange(2))]
                order = int(np.prod(factors))
                if order <= 2000:
                    break
            group = build_group(" x ".join(f"Z/{m}" for m in factors))
        else:
            group = fixed[(i // 3) % 3]
        density = min(1.0, 220 / group.order) * (0.2 + 0.8 * stream.uniform())
        a, b, c = (_random_subset(group, density, stream.next_u64()) for _ in range(3))
        brute = count_xy_eq_z(a, b, c, "brute").count
        cayley = count_xy_eq_z(a, b, c, "cayley").count
        assert brute == cayley, (group.spec_text, brute, cayley)
        if group.cyclic_moduli is not None:
            fft = count_xy_eq_z(a, b, c, "fft").count
            assert fft == brute, (group.spec_text, brute, fft)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 100 and elapsed < 60
    _line(1, ok, label, f"{checked} instances in {elapsed:.1f}s")
    assert ok


# -- 2 ------------------------------------------------------------------------


def test_acceptance_02_convolution_identity():
    label = "|XxY| = sum over XY^-1 of |X meet xY| on 1000 random pairs (<30s)"
    start = time.monotonic()
    specs = ("Z/30", "Z/64", "Z/7 x Z/9", "perm:(1 2 3 4);(1 2)", "PSL2(5)")
    pairs = 0
    for gi, spec in enumerate(specs):
        group = build_group(spec)
        for t in range(200):
            x = _random_subset(group, 0.35, derive(MASTER_SEED, 2, gi, t, 0))
            y = _random_subset(group, 0.35, derive(MASTER_SEED, 2, gi, t, 1))
            res = convolution_identity_check(x, y)
            assert res.ok, (spec, t, res.lhs, res.rhs)
            pairs += 1
    elapsed = time.monotonic() - start
    ok = pairs == 1000 and elapsed < 30
    _line(2, ok, label, f"{pairs} pairs over {len(specs)} groups in {elapsed:.1f}s")
    assert ok


# -- 3 ------------------------------------------------------------------------


def test_acceptance_03_spectral_validation():
    label = "spectral validation incl. strictly increasing PSL2 quasirandomness (<5min)"
    start = time.monotonic()
    fleet = (
        "Z/6", "Z/12", "Z/2 x Z/2 x Z/2", "perm:(1 2 3);(1 2)",
        "perm:(1 2 3 4);(1 2)", "perm:(1 2 3);(1 2)(3 4)", "PSL2(5)", "PSL2(7)",
    )
    for spec in fleet:
        group = build_group(spec)
        profile = character_degrees(group)
        assert sum(d * d for d in profile.degrees) == group.order, spec
        assert profile.degree_one_multiplicity() == profile.abelianization_order, spec
    profile5 = character_degrees(build_group("PSL2(5)"))
    assert profile5.degrees == (1, 3, 3, 4, 5)

    qdegs = [quasirandomness_degree(build_group(f"PSL2({q})")) for q in (5, 7, 11, 13)]
    strictly_increasing = all(x < y for x, y in zip(qdegs, qdegs[1:]))
    elapsed = time.monotonic() - start
    ok = strictly_increasing and elapsed < 300
    _line(
        3,
        ok,
        label,
        f"sum-of-squares and degree-1 checks passed; PSL2 quasirandomness degrees {qdegs} "
        f"in {elapsed:.1f}s",
    )
    # PSL2(5) and PSL2(7) both have minimal nontrivial degree 3, so the
    # strict version of this criterion cannot hold; asserted as stated.
    assert strictly_increasing, (
        f"quasirandomness degrees for q in (5, 7, 11, 13) are {qdegs}: "
        "nondecreasing but not strictly increasing (3 = 3 at q = 5, 7)"
    )
    assert elapsed < 300


# -- 4 ------------------------------------------------------------------------


def test_acceptance_04_mixing_trend():
    label = "mixing deviation shrinks from PSL2(5) to PSL2(13), q=13 below 0.25 (<10min)"
    start = time.monotonic()
    cfg = ExperimentConfig(
        recipe="mixing-trend",
        params={"qs": [5, 7, 11, 13], "density": 0.3, "seeds": 5},
        seed=MASTER_SEED,
    )
    report = run_recipe(cfg)
    per_group = report.aggregates["per_group"]
    dev5 = per_group["PSL2(5)"]["median_deviation"]
    dev13 = per_group["PSL2(13)"]["median_deviation"]
    elapsed = time.monotonic() - start
    # 0.25 was confirmed on the first seeded run (observed ~0.002 at q=13)
    ok = dev13 < dev5 and dev13 < 0.25 and elapsed < 600
    _line(4, ok, label, f"median dev q5={dev5:.4f} q13={dev13:.4f} in {elapsed:.1f}s")
    assert dev13 < dev5
    assert dev13 < 0.25
    assert elapsed < 600


# -- 5 ------------------------------------------------------------------------


def test_acceptance_05_roth_intervals():
    label = "interval AP3 counts in Z/10000 match ceil(m^2/2), doubling <= 2 (<10s)"
    start = time.monotonic()
    group = build_group("Z/10000")
    ok = True
    details = []
    for m in (50, 100, 200):
        a = make_set(group, f"interval:0,{m}")
        rep = count_ap3(a)
        want = (m * m + 1) // 2
        ratio = rep.count / (a.card**2)
        dbl = doubling_constant(a)
        ok = ok and rep.count == want and ratio >= 0.49 and dbl <= 2
        details.append(f"m={m}:{rep.count}")
        assert rep.count == want
        assert ratio >= 0.49
        assert dbl <= 2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _line(5, ok, label, f"{' '.join(details)} in {elapsed:.1f}s")
    assert elapsed < 10


# -- 6 ------------------------------------------------------------------------


def test_acceptance_06_power_equation_consistency():
    label = "x*y = z^2 count equals role-switched AP3 count on Z/p (<1s)"
    start = time.monotonic()
    for p in (5, 7, 11):
        group = build_group(f"Z/{p}")
        a = GroupSubset.from_indices(group, [0, 1, 2])
        pw = count_power_equation(a, 1, 1, 2)
        ap = count_ap3(a)
        assert pw.count == ap.count, p
        assert pw.count - pw.degenerate_count == ap.count - ap.degenerate_count, p
        if p == 5:
            assert pw.count == 5
    elapsed = time.monotonic() - start
    ok = elapsed < 1
    _line(6, ok, label, f"in {elapsed*1000:.0f}ms")
    assert ok


# -- 7 ------------------------------------------------------------------------


def test_acceptance_07_schur_exhaustive_floor():
    label = "adversarial Schur search reaches the exhaustive floor on Z/n, n<=6 (<2min)"
    start = time.monotonic()
    for n in range(1, 7):
        group = build_group(f"Z/{n}")
        floor = exhaustive_schur_minimum(group, 2)
        found = schur_adversarial_search(group, 2, iterations=150, restarts=12, seed=derive(MASTER_SEED, 7, n))
        assert found.max_count == floor, (n, found.max_count, floor)
        single = schur_counts(Coloring(group, np.zeros(n, dtype=np.int64), 1))
        assert single.counts() == [n * n]
    elapsed = time.monotonic() - start
    ok = elapsed < 120
    _line(7, ok, label, f"in {elapsed:.1f}s")
    assert ok


# -- 8 ------------------------------------------------------------------------


def test_acceptance_08_hindman_witnesses():
    label = "n=3 monochromatic witnesses for 20 seeded 2-colorings of 3 groups (<2min)"
    start = time.monotonic()
    found = 0
    for gi, spec in enumerate(("Z/16", "perm:(1 2 3 4);(1 2)", "PSL2(5)")):
        group = build_group(spec)
        for t in range(20):
            coloring = Coloring.random(group, 2, derive(MASTER_SEED, 8, gi, t))
            witness = monochromatic_tuple_search(coloring, 3)
            assert isinstance(witness, TupleWitness), (spec, t)
            assert validate_witness(group, witness, coloring.color_class(witness.color)), (spec, t)
            ident_class = coloring.color_class(int(coloring.color_of[0]))
            greedy = hindman_greedy(ident_class, 3)
            assert isinstance(greedy, TupleWitness), (spec, t)
            assert validate_witness(group, greedy, ident_class), (spec, t)
            found += 1
    elapsed = time.monotonic() - start
    ok = found == 60 and elapsed < 120
    _line(8, ok, label, f"{found} witnesses in {elapsed:.1f}s")
    assert ok


# -- 9 ------------------------------------------------------------------------


def _ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


def _rich_oracle_status(a: GroupSubset, eps: Fraction) -> str:
    g = a.group
    elems = a.to_index_list()
    s_min = max(1, _ceil_frac(eps.numerator * a.card, eps.denominator))
    for size in range(s_min, a.card + 1):
        for sub in itertools.combinations(elems, size):
            inside = set(sub)
            if not any(g.mul(x, y) in inside for x in sub for y in sub):
                return VIOLATED
    return "verified_exact"


def _regular_oracle_status(a, b, c, eps: Fraction) -> str:
    g = a.group
    sss_memo: dict = {}
    meet_memo: dict = {}

    def sss(sub):
        if sub not in sss_memo:
            pair = {g.mul(x, g.inv(y)) for x in sub for y in sub}
            sss_memo[sub] = frozenset(g.mul(p, z) for p in pair for z in sub)
        return sss_memo[sub]

    def qualifying(s):
        elems = s.to_index_list()
        s_min = max(1, _ceil_frac(eps.numerator * s.card, eps.denominator))
        for size in range(s_min, s.card + 1):
            yield from itertools.combinations(elems, size)

    def meets(ta, tb, tc) -> bool:
        key = (ta, tb, tc)
        if key not in meet_memo:
            meet_memo[key] = any(g.mul(x, y) in tc for x in ta for y in tb)
        return meet_memo[key]

    if min(a.card, b.card, c.card) == 0:
        return "verified_exact"
    for sa in qualifying(a):
        for sb in qualifying(b):
            for sc in qualifying(c):
                if not meets(sss(sa), sss(sb), sss(sc)):
                    return VIOLATED
    return "verified_exact"


def test_acceptance_09_regularity_checkers_vs_oracles():
    label = "exact regularity checkers match direct enumeration oracles, order <= 8 (<5min)"
    start = time.monotonic()
    eps_values = (Fraction(1, 2), Fraction(1))
    rich_specs = ("Z/5", "Z/6", "Z/7", "Z/8", "Z/2 x Z/2", "perm:(1 2 3);(1 2)")
    rich_checked = 0
    for spec in rich_specs:
        group = build_group(spec)
        for mask in range(1 << group.order):
            a = GroupSubset.from_indices(group, [i for i in range(group.order) if (mask >> i) & 1])
            for eps in eps_values:
                got = check_product_rich(a, eps)
                assert got.status == _rich_oracle_status(a, eps), (spec, mask, eps)
                if got.status == VIOLATED:
                    w = set(got.witness[0])
                    assert not any(group.mul(x, y) in w for x in w for y in w)
                rich_checked += 1

    diag_specs = ("Z/4", "Z/5", "Z/6", "Z/2 x Z/2", "perm:(1 2 3);(1 2)", "Z/8")
    reg_checked = 0
    for spec in diag_specs:
        group = build_group(spec)
        for mask in range(1, 1 << group.order):
            a = GroupSubset.from_indices(group, [i for i in range(group.order) if (mask >> i) & 1])
            for eps in eps_values:
                got = check_regular_position(a, a, a, eps)
                assert got.status == _regular_oracle_status(a, a, a, eps), (spec, mask, eps)
                reg_checked += 1

    # seeded off-diagonal triples
    stream = SplitMix64(derive(MASTER_SEED, 9))
    for spec in ("Z/6", "perm:(1 2 3);(1 2)", "Z/2 x Z/2"):
        group = build_group(spec)
        for _ in range(25):
            masks = [1 + stream.randrange((1 << group.order) - 1) for _ in range(3)]
            a, b, c = (
                GroupSubset.from_indices(group, [i for i in range(group.order) if (m >> i) & 1])
                for m in masks
            )
            got = check_regular_position(a, b, c, Fraction(1, 2))
            assert got.status == _regular_oracle_status(a, b, c, Fraction(1, 2)), (spec, masks)
            if got.status == VIOLATED:
                wa, wb, wc = got.witness
                assert not _meets_raw(group, wa, wb, wc)
            reg_checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 300
    _line(9, ok, label, f"{rich_checked} rich + {reg_checked} regular instances in {elapsed:.1f}s")
    assert ok


def _meets_raw(g, wa, wb, wc) -> bool:
    def sss(sub):
        pair = {g.mul(x, g.inv(y)) for x in sub for y in sub}
        return {g.mul(p, z) for p in pair for z in sub}

    ta, tb, tc = sss(wa), sss(wb), sss(wc)
    return any(g.mul(x, y) in tc for x in ta for y in tb)


# -- 10 -----------------------------------------------------------------------


def test_acceptance_10_determinism(tmp_path):
    label = "byte-identical reports for identical config+seed; threads change nothing (<1min)"
    start = time.monotonic()
    config_text = (
        'recipe = "mixing-trend"\n'
        "seed = 424242\n"
        "[params]\n"
        "qs = [5]\n"
        "density = 0.3\n"
        "seeds = 3\n"
        "[grid]\n"
        '"params.density" = [0.2, 0.3]\n'
    )
    path = tmp_path / "trend.cfg"
    path.write_text(config_text)

    cmd = [sys.executable, "-m", "grplab.cli", "sweep", "--config", str(path)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    from grplab.lab import load_config

    serial_cfg = load_config(str(path))
    parallel_cfg = load_config(str(path))
    parallel_cfg.threads = 4
    serial_reports, serial_rows = sweep(serial_cfg)
    parallel_reports, parallel_rows = sweep(parallel_cfg)
    assert [r.to_json() for r in serial_reports] == [r.to_json() for r in parallel_reports]
    assert serial_rows == parallel_rows
    assert json.loads(first.stdout)[0]["instances"] == json.loads(serial_reports[0].to_json())["instances"]
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    _line(10, ok, label, f"in {elapsed:.1f}s")
    assert ok
