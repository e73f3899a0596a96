"""Irreducible character degrees and the quasirandomness degree of a group.

Degrees are recovered by the class-algebra (Burnside) method: a seeded
random combination of the class sums acts on the centre of the group algebra
with the central idempotents e_chi as eigenvectors, and the class-sum
coordinates of e_chi are proportional to chi(g^-1).  Its identity coordinate
is chi(1), the one of largest modulus, so with <chi, chi> = 1 each
eigenvector v gives chi(1)^2 = |G| / sum_k |K_k| |v_k / v_0|^2.  The operator
is r x r and each of its r rows is one bincount over n products, so the
memory is O(n + r^2).  The result is validated against three exact integer
invariants (degree count = class count, sum of squares = |G|, multiplicity
of degree 1 = |G/[G,G]|, with [G,G] the normal closure of the commutators of
a greedy generating set) and the computation retries with fresh seeds before
failing loudly.

For tiny groups an independent second path decomposes the regular
representation directly from eigenvalue multiplicities of a generic group
algebra element; the two paths must agree.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import BudgetExceeded, ValidationFailed
from .groups import ConjugacyClasses, FiniteGroup, _distinct, _generating_set, _subgroup_closure, conjugacy_classes
from .rng import SplitMix64, derive

CLASS_COUNT_CAP = 300
_RETRY_SEEDS = 3
_REGULAR_MAX_ORDER = 24


class DegreeProfile(NamedTuple):
    """Multiset of irreducible character degrees plus its validation data."""

    degrees: Tuple[int, ...]
    class_count: int
    abelianization_order: int

    def degree_one_multiplicity(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    def to_dict(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "class_count": self.class_count,
            "abelianization_order": self.abelianization_order,
        }


def abelianization_order(group: FiniteGroup) -> int:
    """|G / [G,G]|, with [G,G] the normal closure of the commutators [s, t] of
    the greedy generating set S: while an S-conjugate of a generator of their
    subgroup N lies outside N, the least one joins the generators, so |N| at
    least doubles.  A normal N holding every [s, t] is [G,G]."""
    n = group.order
    s = np.array(_generating_set(group), dtype=np.int64)
    inv = group.inverse_table.astype(np.int64)[s]
    comm = group.mul_arrays(
        group.mul_arrays(inv[:, None], inv[None, :]), group.mul_arrays(s[:, None], s[None, :])
    )
    gens = [int(c) for c in _distinct(comm) if c]
    members = _subgroup_closure(group, gens)
    while gens:
        conj = group.mul_arrays(group.mul_arrays(inv[:, None], np.array(gens)[None, :]), s[:, None])
        outside = conj[~members[conj]]
        if not len(outside):
            break
        gens.append(int(outside.min()))
        _subgroup_closure(group, gens, members)
    commutator_order = int(members.sum())
    if n % commutator_order:
        raise ValidationFailed("commutator subgroup order does not divide |G|")
    return n // commutator_order


def _class_sum_operator(group: FiniteGroup, classes: ConjugacyClasses, weights: np.ndarray) -> np.ndarray:
    """Multiplication by sum_i w_i C_i in the class-sum basis: entry (k, j)
    is sum_x w(class of x) [x^-1 z_k in K_j] for the class reps z_k."""
    r = classes.count
    class_of = classes.class_of
    inv = group.inverse_table.astype(np.int64)
    w = weights[class_of]
    op = np.empty((r, r), dtype=np.float64)
    for k, rep in enumerate(classes.representatives()):
        op[k] = np.bincount(class_of[group.mul_arrays(inv, rep)], weights=w, minlength=r)
    return op


def character_degrees(group: FiniteGroup, *, seed: int = 0) -> DegreeProfile:
    """Exact irreducible character degrees via the class-algebra method.

    Refuses a group with more than CLASS_COUNT_CAP classes before the
    abelianization or the class-sum operator takes any product.
    """
    classes = conjugacy_classes(group)
    r = classes.count
    if r > CLASS_COUNT_CAP:
        raise BudgetExceeded(f"{r} conjugacy classes exceed cap {CLASS_COUNT_CAP}")
    ab_order = abelianization_order(group)
    sizes = np.array(classes.sizes(), dtype=np.float64)

    last_error: Optional[str] = None
    for attempt in range(_RETRY_SEEDS):
        weights = SplitMix64(derive(seed, 0xB0B, attempt)).uniform_array(r)
        _, vecs = np.linalg.eig(_class_sum_operator(group, classes, weights))
        # a vanishing or NaN identity coordinate gives d = 0 or NaN, which fails below
        with np.errstate(all="ignore"):
            d = np.sqrt(group.order / (sizes @ np.abs(vecs / vecs[0]) ** 2))
        rounded = np.rint(d)
        if not (np.all(np.abs(d - rounded) <= 1e-4) and np.all(rounded >= 1)):
            last_error = "eigenvalue extraction did not yield clean integers"
            continue
        profile = DegreeProfile(tuple(sorted(int(x) for x in rounded)), r, ab_order)
        try:
            _validate_profile(profile, group.order)
        except ValidationFailed as exc:
            last_error = str(exc)
            continue
        return profile
    raise ValidationFailed(
        f"character degrees failed validation after {_RETRY_SEEDS} seeds: {last_error}"
    )


def _validate_profile(profile: DegreeProfile, order: int) -> None:
    if len(profile.degrees) != profile.class_count:
        raise ValidationFailed(
            f"{len(profile.degrees)} degrees for {profile.class_count} classes"
        )
    sq = sum(d * d for d in profile.degrees)
    if sq != order:
        raise ValidationFailed(f"sum of squared degrees {sq} != group order {order}")
    ones = profile.degree_one_multiplicity()
    if ones != profile.abelianization_order:
        raise ValidationFailed(
            f"degree-1 multiplicity {ones} != abelianization order {profile.abelianization_order}"
        )


def quasirandomness_degree(group: FiniteGroup, *, seed: int = 0) -> int:
    """Largest d such that every nontrivial irreducible has degree >= d.

    Equals the minimum degree over nontrivial irreducibles; the trivial
    group, having none, returns its order 1.
    """
    profile = character_degrees(group, seed=seed)
    rest = list(profile.degrees)
    rest.remove(1)  # the trivial character
    if not rest:
        return group.order
    return min(rest)


# ---------------------------------------------------------------------------
# independent oracle: decompose the regular representation directly


def regular_representation_degrees(group: FiniteGroup, *, seed: int = 0) -> Tuple[int, ...]:
    """Degrees read off the regular representation of a tiny group.

    A generic element of the group algebra acts on the regular representation
    with each irreducible of degree d contributing d distinct eigenvalues of
    multiplicity d.  Clustering eigenvalues of a seeded random combination
    and dividing each multiplicity class by its size recovers the degrees.
    """
    n = group.order
    if n > _REGULAR_MAX_ORDER:
        raise BudgetExceeded(f"regular representation path capped at order {_REGULAR_MAX_ORDER}")
    idx = np.arange(n, dtype=np.int64)
    for attempt in range(_RETRY_SEEDS):
        rng = SplitMix64(derive(seed, 0x2E6, attempt))
        mat = np.zeros((n, n), dtype=np.float64)
        for g in range(n):
            mat[group.mul_arrays(np.full(n, g, dtype=np.int64), idx), idx] += rng.uniform()
        eigvals = np.linalg.eigvals(mat)
        mults = _cluster_multiplicities(eigvals, tol=1e-6 * max(1.0, float(np.abs(eigvals).max())))
        degrees = _degrees_from_multiplicities(mults)
        if degrees is not None and sum(d * d for d in degrees) == n:
            return tuple(sorted(degrees))
    raise ValidationFailed("regular representation decomposition failed")


def _cluster_multiplicities(eigvals: np.ndarray, tol: float) -> List[int]:
    # greedy 2D clustering; sort adjacency is unreliable for conjugate pairs
    remaining = list(eigvals)
    mults: List[int] = []
    while remaining:
        pivot = remaining[0]
        close = [v for v in remaining if abs(v - pivot) <= tol]
        remaining = [v for v in remaining if abs(v - pivot) > tol]
        mults.append(len(close))
    return mults


def _degrees_from_multiplicities(mults: List[int]) -> Optional[List[int]]:
    by_mult: dict = {}
    for m in mults:
        by_mult[m] = by_mult.get(m, 0) + 1
    degrees: List[int] = []
    for d, count in by_mult.items():
        if count % d:
            return None
        degrees.extend([d] * (count // d))
    return degrees
