"""Subset-quantifier regularity checks: product-richness and regular position.

Both conditions quantify over all dense-enough subsets, so exact checking is
exponential and only offered below hard caps.  Sampled mode is a one-sided
falsification search: it can return a violation witness but can never
certify, which is why its clean verdict is ``no_violation_found`` with the
sample count rather than ``verified_exact``.

Every product goes through ``mul_arrays``: exact regular position tests each
A-subset against all B- and C-subsets as one batched xyz count, sampled mode
builds each S S^-1 S on the set layer, which also re-checks every witness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ExactCapExceeded, MalformedSpec, require_nonnegative
from .groups import _pair_blocks
from .sets import GroupSubset, _require_same_group, inverse_set, is_product_free, product_set
from .rng import SplitMix64, derive

PRODUCT_RICH_EXACT_CAP = 22
REGULAR_POSITION_EXACT_CAP = 14

VERIFIED_EXACT = "verified_exact"
NO_VIOLATION_FOUND = "no_violation_found"
VIOLATED = "violated"


class RegularityVerdict(NamedTuple):
    """Outcome of a regularity check.

    ``witness`` holds the violating subset(s) as sorted element-index lists:
    a 1-tuple for product-richness, a 3-tuple for regular position.
    """

    status: str
    samples: Optional[int] = None
    witness: Optional[Tuple[Tuple[int, ...], ...]] = None

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.samples is not None:
            out["samples"] = self.samples
        if self.witness is not None:
            out["witness"] = [list(w) for w in self.witness]
        return out


def _as_fraction(eps: Union[Fraction, float, int, str]) -> Fraction:
    """eps as an exact Fraction.  Anything but a number in (0, 1], "1/0" and
    "abc" included, raises MalformedSpec."""
    try:
        frac = Fraction(eps)
    except (ZeroDivisionError, OverflowError, ValueError, TypeError):
        frac = None
    if frac is None or not 0 < frac <= 1:
        raise MalformedSpec(f"epsilon must be in (0, 1], got {eps}")
    return frac


def _min_qualifying_size(card: int, eps: Fraction) -> int:
    """Least s with s/card >= eps, i.e. ceil(eps*card)."""
    return -((-eps.numerator * card) // eps.denominator)


def _positions(universe: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted array ``universe``, -1 where absent."""
    pos = np.searchsorted(universe, values)
    return np.where(universe.take(pos, mode="clip") == values, pos, -1)


def _sss(s: GroupSubset) -> GroupSubset:
    return product_set(product_set(s, inverse_set(s)), s)


def _rich_violation(group, witness: Tuple[int, ...]) -> RegularityVerdict:
    """The violated verdict, once the set layer finds the witness product-free."""
    if not is_product_free(GroupSubset.from_indices(group, witness)):
        raise AssertionError("witness fails re-validation against the raw definition")
    return RegularityVerdict(VIOLATED, witness=(witness,))


def _regular_violation(group, witness: Sequence[Tuple[int, ...]]) -> RegularityVerdict:
    """The violated verdict, once the set layer finds the witness (A0, B0, C0) out of position."""
    ta, tb, tc = (_sss(GroupSubset.from_indices(group, w)) for w in witness)
    if (product_set(ta, tb).mask & tc.mask).any():
        raise AssertionError("witness fails re-validation against the raw definition")
    return RegularityVerdict(VIOLATED, witness=tuple(witness))


# ---------------------------------------------------------------------------
# product-richness: every dense subset S0 of A has S0*S0 meeting S0


def _internal_products(a: GroupSubset) -> List[List[int]]:
    """prod[i][j] = position in a of a_i * a_j, or -1 outside a; one int object per value."""
    idx = a.indices
    shared = np.array(range(-1, len(idx)), dtype=object)
    blocks = _pair_blocks(a.group.mul_arrays, idx, idx)
    return [row for blk in blocks for row in shared[_positions(idx, blk) + 1].tolist()]


def _has_internal_product(combo: Sequence[int], member: int, prod: List[List[int]]) -> bool:
    for i in combo:
        row = prod[i]
        for j in combo:
            p = row[j]
            if p >= 0 and (member >> p) & 1:
                return True
    return False


def check_product_rich(
    a: GroupSubset,
    eps: Union[Fraction, float, str],
    mode: str = "exact",
    *,
    trials: int = 2000,
    seed: int = 0,
) -> RegularityVerdict:
    """Check that every subset of a of relative density >= eps meets its own
    productset.  Exact mode enumerates the subsets of the least qualifying
    size, which suffices because a product-free subset stays product-free
    when shrunk; any violation witness is re-verified against the raw
    definition before returning."""
    eps = _as_fraction(eps)
    require_nonnegative(trials=trials)
    if mode == "exact":
        if a.card > PRODUCT_RICH_EXACT_CAP:
            raise ExactCapExceeded(f"|A|={a.card} exceeds exact cap {PRODUCT_RICH_EXACT_CAP}")
        return _product_rich_exact(a, eps)
    if mode == "sampled":
        return _product_rich_sampled(a, eps, trials, seed)
    raise MalformedSpec(f"unknown mode {mode!r}")


def _product_rich_exact(a: GroupSubset, eps: Fraction) -> RegularityVerdict:
    k = a.card
    if k == 0:
        return RegularityVerdict(VERIFIED_EXACT)
    elems = a.to_index_list()
    prod = _internal_products(a)
    # every product-free subset contains one of the least qualifying size,
    # and enumerating all sizes in ascending order would find that one first
    for combo in itertools.combinations(range(k), _min_qualifying_size(k, eps)):
        member = 0
        for i in combo:
            member |= 1 << i
        if not _has_internal_product(combo, member, prod):
            return _rich_violation(a.group, tuple(elems[i] for i in combo))
    return RegularityVerdict(VERIFIED_EXACT)


def _product_rich_sampled(a: GroupSubset, eps: Fraction, trials: int, seed: int) -> RegularityVerdict:
    k = a.card
    if k == 0:
        return RegularityVerdict(NO_VIOLATION_FOUND, samples=0)
    elems = a.to_index_list()
    prod = _internal_products(a)
    s_min = _min_qualifying_size(k, eps)
    rng = SplitMix64(derive(seed, 0x51C4))
    for _ in range(trials):
        combo = _descend(sorted(rng.sample_indices(k, s_min)), prod)
        if combo is not None:
            return _rich_violation(a.group, tuple(elems[i] for i in combo))
    return RegularityVerdict(NO_VIOLATION_FOUND, samples=trials)


def _descend(combo: List[int], prod: List[List[int]]) -> Optional[List[int]]:
    """Greedy descent on the score of the sorted positions ``combo``, the
    number of ordered pairs (i, j) of members whose product prod[i][j] is a
    member, by :func:`_first_better_swap` while the score is above 0.
    Returns the product-free subset it reaches, or None where no swap helps."""
    while combo is not None:
        # counts[p] pairs of combo^2 have product p; counts[-1], those outside a
        counts = [0] * (len(prod) + 1)
        for i in combo:
            row = prod[i]
            for j in combo:
                counts[row[j]] += 1
        if not any(counts[p] for p in combo):
            return combo
        combo = _first_better_swap(combo, prod, counts)
    return None


def _first_better_swap(combo: List[int], prod: List[List[int]], counts: List[int]) -> Optional[List[int]]:
    """combo with its first member (in combo order) swapped for its first
    outsider (ascending) that lowers the score, or None if none does.

    Each swap is scored in O(s).  With U = combo - {o}, the subset U + x
    scores score(U) + f(x), where f(x) counts the pairs of (U + x)^2 with
    product in U + x that hold x as a factor, plus the pairs of U^2 with
    product x.  So swapping o for c lowers the score when f(c) < f(o).
    """
    # inside[-1] stands for the products outside a, never inside
    inside = [False] * len(counts)
    for i in combo:
        inside[i] = True
    outside = [c for c in range(len(prod)) if not inside[c]]
    for oi, o in enumerate(combo):
        rest = combo[:oi] + combo[oi + 1:]
        inside[o] = False  # inside is now U
        # pairs of combo^2 holding o, by product: the pairs of U^2 with
        # product x are counts[x] less these
        with_o = {}
        row = prod[o]
        for j in combo:
            with_o[row[j]] = with_o.get(row[j], 0) + 1
            with_o[prod[j][o]] = with_o.get(prod[j][o], 0) + 1
        with_o[row[o]] -= 1

        def f(x: int) -> int:
            row = prod[x]
            hits = counts[x] - with_o.get(x, 0) + (inside[row[x]] or row[x] == x)
            for j in rest:
                p = row[j]
                hits += inside[p] or p == x
                p = prod[j][x]
                hits += inside[p] or p == x
            return hits

        f_out = f(o)
        better = next((c for c in outside if f(c) < f_out), None)
        if better is not None:
            return sorted(rest + [better])
        inside[o] = True
    return None


# ---------------------------------------------------------------------------
# regular position: (A0 A0^-1 A0)(B0 B0^-1 B0) meets C0 C0^-1 C0 for all
# dense subsets A0, B0, C0


def _sss_rows(group, subsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """S S^-1 S of every row S of the m x s index array ``subsets``: the sorted
    union ``universe`` and one boolean row over it per S.  All m s^3 products are
    held at once, which only the exact cap bounds (about 1.5M at 14 elements)."""
    m = len(subsets)
    pairs = group.mul_arrays(subsets[:, :, None], group.inverse_table[subsets][:, None, :].astype(np.int64))
    universe, pos = np.unique(group.mul_arrays(pairs.reshape(m, -1, 1), subsets[:, None, :]), return_inverse=True)
    rows = np.zeros((m, len(universe)), dtype=bool)
    rows[np.arange(m)[:, None], pos.reshape(m, -1)] = True
    return universe, rows


def check_regular_position(
    a: GroupSubset,
    b: GroupSubset,
    c: GroupSubset,
    eps: Union[Fraction, float, str],
    mode: str = "exact",
    *,
    trials: int = 500,
    seed: int = 0,
) -> RegularityVerdict:
    """Check the triple-subset compatibility condition at density eps.

    Relative density is measured within each input set: a qualifying subset
    of a has size >= eps*|a|.  Exact mode enumerates the subsets of the
    least qualifying size of each set, which suffices because S S^-1 S
    shrinks with S; violation witnesses re-verify against the definition.
    """
    group = _require_same_group(a, b, c)
    eps = _as_fraction(eps)
    require_nonnegative(trials=trials)
    if mode == "exact":
        for s in (a, b, c):
            if s.card > REGULAR_POSITION_EXACT_CAP:
                raise ExactCapExceeded(f"|set|={s.card} exceeds exact cap {REGULAR_POSITION_EXACT_CAP}")
        return _regular_position_exact(group, a, b, c, eps)
    if mode == "sampled":
        return _regular_position_sampled(group, a, b, c, eps, trials, seed)
    raise MalformedSpec(f"unknown mode {mode!r}")


def _first_miss(group, a, b, c) -> Optional[Tuple[int, int, int]]:
    """The least (i, j, k) with a_i b_j disjoint from c_k, or None, for
    (universe, rows) pairs a, b, c from :func:`_sss_rows`.  hits[y, z] = 1 when
    x*y = z for some x in a_i, so rb @ hits @ rc.T is the xyz count N(a_i, b_j,
    c_k) for every (j, k) at once.  Only zero against nonzero is read, and a
    float32 sum of nonnegative terms is zero only when every term is."""
    (ua, ra), (ub, rb), (uc, rc) = a, b, c
    # position in uc of each ua[x] * ub[y], or -1 (a spare column) outside uc
    pos = np.concatenate([_positions(uc, blk) for blk in _pair_blocks(group.mul_arrays, ua, ub)])
    rb, rct = rb.astype(np.float32), rc.T.astype(np.float32)
    for i, row in enumerate(ra):
        hits = np.zeros((len(ub), len(uc) + 1), dtype=np.float32)
        hits[np.arange(len(ub)), pos[row]] = 1
        counts = rb @ hits[:, :-1] @ rct
        if not counts.all():
            return (i, *divmod(int(counts.argmin()), counts.shape[1]))
    return None


def _regular_position_exact(group, a, b, c, eps: Fraction) -> RegularityVerdict:
    if min(a.card, b.card, c.card) == 0:
        return RegularityVerdict(VERIFIED_EXACT)
    # the first subset of least qualifying size of each S S^-1 S value, which
    # an ascending enumeration of all sizes would also find first
    reps = []
    for s in (a, b, c):
        subsets = np.array(list(itertools.combinations(s.to_index_list(), _min_qualifying_size(s.card, eps))))
        universe, rows = _sss_rows(group, subsets)
        first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
        reps.append((subsets[first], universe, rows[first]))
    miss = _first_miss(group, *((universe, rows) for _, universe, rows in reps))
    if miss is None:
        return RegularityVerdict(VERIFIED_EXACT)
    return _regular_violation(group, [tuple(subsets[t].tolist()) for (subsets, _, _), t in zip(reps, miss)])


def _regular_position_sampled(group, a, b, c, eps: Fraction, trials: int, seed: int) -> RegularityVerdict:
    if min(a.card, b.card, c.card) == 0:
        return RegularityVerdict(NO_VIOLATION_FOUND, samples=0)
    rng = SplitMix64(derive(seed, 0x3E6))
    sizes = [_min_qualifying_size(s.card, eps) for s in (a, b, c)]
    pools = [s.to_index_list() for s in (a, b, c)]
    for _ in range(trials):
        subs = [tuple(sorted(pool[i] for i in rng.sample_indices(len(pool), size))) for pool, size in zip(pools, sizes)]
        ta, tb, tc = (_sss(GroupSubset.from_indices(group, sub)) for sub in subs)
        if not any(tc.mask[group.mul_arrays(x, tb.indices)].any() for x in ta.indices):
            return _regular_violation(group, subs)
    return RegularityVerdict(NO_VIOLATION_FOUND, samples=trials)
