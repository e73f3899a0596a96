"""Irreducible character degrees and the quasirandomness degree of a group.

Degrees are recovered by the class-algebra (Burnside) method: build the
class-multiplication-coefficient matrices from the Cayley structure,
simultaneously diagonalize them through a seeded random linear combination,
and read each irreducible's degree from its central character.  The result
is validated against three exact integer invariants (degree count = class
count, sum of squares = |G|, multiplicity of degree 1 = abelianization
order) and the computation retries with fresh seeds before failing loudly.

For tiny groups an independent second path decomposes the regular
representation directly from eigenvalue multiplicities of a generic group
algebra element; the two paths must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BudgetExceeded, ValidationFailed
from .groups import ConjugacyClasses, FiniteGroup, conjugacy_classes
from .rng import SplitMix64, derive

CLASS_COUNT_CAP = 300
_EIG_TOL = 1e-8
_RETRY_SEEDS = 3


@dataclass(frozen=True)
class DegreeProfile:
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
    """|G / [G,G]|, with [G,G] the subgroup generated by all commutators."""
    n = group.order
    idx = np.arange(n, dtype=np.int64)
    inv = group.inverse_table.astype(np.int64)
    gens: set = set()
    chunk = max(1, (1 << 20) // n)
    for lo in range(0, n, chunk):
        g = idx[lo : lo + chunk][:, None]
        h = idx[None, :]
        comm = group.mul_arrays(
            group.mul_arrays(inv[g], inv[h]), group.mul_arrays(g, h)
        )
        gens.update(np.unique(comm).tolist())
    members = np.zeros(n, dtype=bool)
    members[0] = True
    frontier = np.array([0], dtype=np.int64)
    gen_arr = np.array(sorted(gens), dtype=np.int64)
    step = max(1, (1 << 20) // len(gen_arr))
    while len(frontier):
        found = []
        for lo in range(0, len(frontier), step):
            prods = np.unique(group.mul_arrays(frontier[lo : lo + step, None], gen_arr[None, :]))
            new = prods[~members[prods]]
            members[new] = True
            found.append(new)
        frontier = np.concatenate(found)
    commutator_order = int(members.sum())
    if n % commutator_order:
        raise ValidationFailed("commutator subgroup order does not divide |G|")
    return n // commutator_order


def _class_matrices(group: FiniteGroup, classes: ConjugacyClasses) -> np.ndarray:
    """a[i, j, k] = #{(x, y) in K_i x K_j : x*y = z_k} for fixed class reps z_k."""
    r = classes.count
    n = group.order
    class_of = classes.class_of
    inv = group.inverse_table.astype(np.int64)
    xs = np.arange(n, dtype=np.int64)
    a = np.zeros((r, r, r), dtype=np.int64)
    for k, rep in enumerate(classes.representatives()):
        ys = group.mul_arrays(inv, np.full(n, rep, dtype=np.int64))
        np.add.at(a[:, :, k], (class_of[xs], class_of[ys]), 1)
    return a


def character_degrees(group: FiniteGroup, *, seed: int = 0) -> DegreeProfile:
    """Exact irreducible character degrees via the class-algebra method.

    Refuses a group with more than CLASS_COUNT_CAP classes before building
    any class matrix: at once for an abelian group, whose n elements are
    its classes, and after CLASS_COUNT_CAP + 1 classes otherwise.
    """
    if group.is_abelian and group.order > CLASS_COUNT_CAP:
        raise BudgetExceeded(f"{group.order} conjugacy classes exceed cap {CLASS_COUNT_CAP}")
    classes = conjugacy_classes(group, limit=CLASS_COUNT_CAP + 1)
    r = classes.count
    if r > CLASS_COUNT_CAP:
        raise BudgetExceeded(f"at least {r} conjugacy classes exceed cap {CLASS_COUNT_CAP}")
    ab_order = abelianization_order(group)
    if r == 1:
        profile = DegreeProfile((1,), 1, ab_order)
        _validate_profile(profile, group.order)
        return profile

    coeffs = _class_matrices(group, classes)
    sizes = np.array(classes.sizes(), dtype=np.float64)
    # multiplication-by-class-sum operators T_i in the class-sum basis
    mats = [coeffs[i].T.astype(np.float64) for i in range(r)]

    last_error: Optional[str] = None
    for attempt in range(_RETRY_SEEDS):
        rng = SplitMix64(derive(seed, 0xB0B, attempt))
        weights = rng.uniform_array(r)
        combo = sum(w * m for w, m in zip(weights, mats))
        _, vecs = np.linalg.eig(combo)
        degrees = _degrees_from_eigenvectors(group.order, mats, sizes, vecs)
        if degrees is None:
            last_error = "eigenvalue extraction did not yield clean integers"
            continue
        profile = DegreeProfile(tuple(sorted(degrees)), r, ab_order)
        try:
            _validate_profile(profile, group.order)
        except ValidationFailed as exc:
            last_error = str(exc)
            continue
        return profile
    raise ValidationFailed(
        f"character degrees failed validation after {_RETRY_SEEDS} seeds: {last_error}"
    )


def _degrees_from_eigenvectors(
    order: int, mats: List[np.ndarray], sizes: np.ndarray, vecs: np.ndarray
) -> Optional[List[int]]:
    r = len(mats)
    degrees: List[int] = []
    for col in range(r):
        v = vecs[:, col]
        pivot = int(np.argmax(np.abs(v)))
        if abs(v[pivot]) < _EIG_TOL:
            return None
        omegas = np.array([(m @ v)[pivot] / v[pivot] for m in mats])
        denom = float(np.sum(np.abs(omegas) ** 2 / sizes))
        if denom <= 0:
            return None
        d = np.sqrt(order / denom)
        d_int = int(round(d))
        if d_int < 1 or abs(d - d_int) > 1e-4:
            return None
        degrees.append(d_int)
    return degrees


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


def regular_representation_degrees(
    group: FiniteGroup, *, seed: int = 0, max_order: int = 24
) -> Tuple[int, ...]:
    """Degrees read off the regular representation of a tiny group.

    A generic element of the group algebra acts on the regular representation
    with each irreducible of degree d contributing d distinct eigenvalues of
    multiplicity d.  Clustering eigenvalues of a seeded random combination
    and dividing each multiplicity class by its size recovers the degrees.
    """
    n = group.order
    if n > max_order:
        raise BudgetExceeded(f"regular representation path capped at order {max_order}")
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
