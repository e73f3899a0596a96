from __future__ import annotations

import numpy as np
import pytest

from grplab.errors import BudgetExceeded, ValidationFailed
from grplab.groups import Cyclic, DirectProduct, TableGroup, build_group, conjugacy_classes, parse_group_spec
from grplab.spectral import (
    _class_sum_operator,
    abelianization_order,
    character_degrees,
    quasirandomness_degree,
    regular_representation_degrees,
)

from conftest import FLEET_SPECS, _dihedral_table, fleet_group, traced_peak


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_profile_invariants(spec):
    g = fleet_group(spec)
    profile = character_degrees(g)
    assert sum(d * d for d in profile.degrees) == g.order
    assert len(profile.degrees) == conjugacy_classes(g).count
    assert profile.degree_one_multiplicity() == profile.abelianization_order
    assert all(d >= 1 for d in profile.degrees)


def test_abelian_groups_have_all_degree_one():
    for spec in ("Z/6", "Z/12", "Z/2 x Z/2 x Z/2"):
        g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
        assert character_degrees(g).degrees == (1,) * g.order


def test_s3_profile(s3):
    assert character_degrees(s3).degrees == (1, 1, 2)


def test_s4_profile(s4):
    assert character_degrees(s4).degrees == (1, 1, 2, 3, 3)


def test_psl2_5_profile(psl2_5):
    assert character_degrees(psl2_5).degrees == (1, 3, 3, 4, 5)


def test_abelianization_orders():
    assert abelianization_order(build_group("Z/12")) == 12
    assert abelianization_order(fleet_group("perm:(1 2 3);(1 2)")) == 2
    assert abelianization_order(fleet_group("perm:(1 2 3 4);(1 2)")) == 2
    assert abelianization_order(fleet_group("perm:(1 2 3);(1 2)(3 4)")) == 3
    assert abelianization_order(fleet_group("PSL2(5)")) == 1  # perfect group


def test_quasirandomness_of_abelian_groups():
    assert quasirandomness_degree(build_group("Z/7")) == 1
    assert quasirandomness_degree(build_group("Z/2 x Z/3")) == 1


def test_quasirandomness_degree_iff_abelianization(any_fleet_group):
    g = any_fleet_group
    if g.order == 1:
        return
    qdeg = quasirandomness_degree(g)
    if abelianization_order(g) > 1:
        assert qdeg == 1
    else:
        assert qdeg > 1


def test_trivial_group_convention():
    assert quasirandomness_degree(build_group("Z/1")) == 1


def test_psl2_quasirandomness_values():
    # frozen from the class-algebra computation, cross-checked by the degree
    # invariants; PSL2(5) and PSL2(7) tie at 3, the sequence is nondecreasing
    got = [quasirandomness_degree(build_group(f"PSL2({q})")) for q in (5, 7, 11, 13)]
    assert got == [3, 3, 5, 7]


def test_regular_representation_path_agrees():
    for spec in ("Z/6", "Z/12", "perm:(1 2 3);(1 2)", "perm:(1 2 3 4);(1 3)",
                 "perm:(1 2 3);(1 2)(3 4)", "perm:(1 2 3 4);(1 2)"):
        g = build_group(spec)
        assert regular_representation_degrees(g) == character_degrees(g).degrees


def test_regular_representation_cap():
    with pytest.raises(BudgetExceeded):
        regular_representation_degrees(build_group("PSL2(5)"))


def test_quaternion_group_profile():
    # Q8 as a permutation group on 8 points (regular action of i and j)
    q8 = build_group("perm:(1 2 3 4)(5 8 7 6);(1 5 3 7)(2 6 4 8)")
    assert q8.order == 8
    profile = character_degrees(q8)
    assert profile.degrees == (1, 1, 1, 1, 2)
    assert regular_representation_degrees(q8) == (1, 1, 1, 1, 2)


def test_seed_independence():
    g = fleet_group("perm:(1 2 3 4);(1 2)")
    assert character_degrees(g, seed=0) == character_degrees(g, seed=999)


def test_class_cap_refuses_abelian_groups_at_once():
    with pytest.raises(BudgetExceeded, match="8000 conjugacy classes exceed cap 300"):
        character_degrees(build_group("Z/8000"))


def test_class_cap_refuses_a_nonabelian_group_with_its_class_count():
    # S3 x Z/200 is nonabelian with 3 * 200 = 600 classes
    g = build_group(DirectProduct((parse_group_spec("perm:(1 2 3);(1 2)"), Cyclic(200))))
    assert conjugacy_classes(g).count == 600
    with pytest.raises(BudgetExceeded, match="600 conjugacy classes exceed cap 300"):
        character_degrees(g)


# S7 and S8 besides the fleet's permutation groups; the greedy generating set
# of S8 has 7 elements, so [G,G] comes from 49 commutators
_SYMPY_PERM_SPECS = [s for s in FLEET_SPECS if s.startswith("perm:")] + [
    "perm:(1 2 3 4 5 6 7);(1 2)",
    "perm:(1 2 3 4 5 6 7 8);(1 2)",
]


@pytest.mark.parametrize("spec", _SYMPY_PERM_SPECS)
def test_abelianization_order_matches_sympy_derived_subgroup(spec):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    spec_obj = parse_group_spec(spec)
    degree = max(p for gen in spec_obj.generators for cycle in gen for p in cycle)
    perms = [
        combinatorics.Permutation([[p - 1 for p in cycle] for cycle in gen], size=degree)
        for gen in spec_obj.generators
    ]
    sym = combinatorics.PermutationGroup(perms)
    want = sym.order() // sym.derived_subgroup().order()
    assert abelianization_order(fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)) == want


def test_psl2_abelianization_orders():
    # PSL2(2) = S3 and PSL2(3) = A4; PSL2(q) is perfect for q >= 4.  A4 and
    # PSL2(5) need a conjugate added to the commutators of the generators.
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 23, 29)
    got = [abelianization_order(build_group(f"PSL2({q})")) for q in qs]
    assert got == [2, 3] + [1] * (len(qs) - 2)


def _psl2_degrees(q):
    """Closed-form degree multiset of PSL2(q) (PSL2(2) = S3, PSL2(3) = A4)."""
    if q % 2 == 0:
        degs = [1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    elif q % 4 == 1:
        degs = [1, q] + [(q + 1) // 2] * 2 + [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
    else:
        degs = [1, q] + [(q - 1) // 2] * 2 + [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
    return tuple(sorted(degs))


# every prime power q <= 73 but 64, whose PSL2 has order 262080, past the cap
_PSL2_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53,
            59, 61, 67, 71, 73)


@pytest.mark.parametrize("q", _PSL2_QS)
def test_psl2_degrees_match_the_closed_form(q):
    assert character_degrees(build_group(f"PSL2({q})")).degrees == _psl2_degrees(q)


# D_597 and D_594 have 300 classes, the cap
@pytest.mark.parametrize("m", [3, 4, 5, 6, 255, 256, 594, 597])
def test_dihedral_degrees(m):
    ones = 2 if m % 2 else 4
    want = (1,) * ones + (2,) * ((2 * m - ones) // 4)
    assert character_degrees(TableGroup(_dihedral_table(m), f"D{m}")).degrees == want


def test_degrees_at_the_class_cap_stay_within_their_memory_budget():
    g = TableGroup(_dihedral_table(597), "D597")
    profile, peak = traced_peak(lambda: character_degrees(g))
    assert profile.class_count == 300
    assert peak <= 32 << 20, peak


@pytest.mark.parametrize("spec", ["perm:(1 2 3 4);(1 2)", "PSL2(5)"])
def test_class_sum_operator_matches_the_structure_constants(spec):
    # entry (k, j) is sum_i w_i #{(x, y) in K_i x K_j : x*y = z_k}
    g = fleet_group(spec)
    classes = conjugacy_classes(g)
    class_of, reps = classes.class_of, classes.representatives()
    w = np.arange(1.0, classes.count + 1)  # integer weights keep the sums exact
    want = np.zeros((classes.count, classes.count))
    for x in range(g.order):
        for y in range(g.order):
            z = g.mul(x, y)
            if z in reps:
                want[reps.index(z), class_of[y]] += w[class_of[x]]
    assert np.array_equal(_class_sum_operator(g, classes, w), want)


def _eig_spoiling_attempts(monkeypatch, bad, attempts):
    """Patch np.linalg.eig so its first ``attempts`` calls return an
    eigenvector whose identity coordinate is ``bad``; returns the operators."""
    real_eig = np.linalg.eig
    seen = []

    def eig(op):
        seen.append(op.copy())
        vals, vecs = real_eig(op)
        if len(seen) <= attempts:
            vecs = vecs.astype(np.complex128)
            vecs[0, 0] = bad
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", eig)
    return seen


# 0 gives 0/0 = NaN; a tiny coordinate overflows the sum and gives d = 0
_SPOILED = [np.nan, 0.0, 1e-300, np.inf]


@pytest.mark.parametrize("bad", _SPOILED)
def test_a_spoiled_identity_coordinate_fails_the_attempt(monkeypatch, s4, bad):
    seen = _eig_spoiling_attempts(monkeypatch, bad, attempts=1)
    assert character_degrees(s4).degrees == (1, 1, 2, 3, 3)
    assert len(seen) == 2
    assert not np.array_equal(seen[0], seen[1])  # the retry draws fresh weights


@pytest.mark.parametrize("bad", _SPOILED)
def test_three_spoiled_attempts_raise(monkeypatch, s4, bad):
    seen = _eig_spoiling_attempts(monkeypatch, bad, attempts=3)
    with pytest.raises(ValidationFailed, match="after 3 seeds: eigenvalue extraction did not yield clean integers"):
        character_degrees(s4)
    assert len(seen) == 3
