"""Subset-quantifier regularity checks: product-richness and regular position.

Both conditions quantify over all dense-enough subsets, so exact checking is
exponential and only offered below hard caps.  Sampled mode is a one-sided
falsification search: it can return a violation witness but can never
certify, which is why its clean verdict is ``no_violation_found`` with the
sample count rather than ``verified_exact``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExactCapExceeded, MalformedSpec
from .sets import GroupSubset, _require_same_group
from .rng import SplitMix64, derive

PRODUCT_RICH_EXACT_CAP = 22
REGULAR_POSITION_EXACT_CAP = 14

VERIFIED_EXACT = "verified_exact"
NO_VIOLATION_FOUND = "no_violation_found"
VIOLATED = "violated"


@dataclass(frozen=True)
class RegularityVerdict:
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
    frac = Fraction(eps)
    if not 0 < frac <= 1:
        raise MalformedSpec(f"epsilon must be in (0, 1], got {eps}")
    return frac


def _min_qualifying_size(card: int, eps: Fraction) -> int:
    """Least s with s/card >= eps, i.e. ceil(eps*card)."""
    return -((-eps.numerator * card) // eps.denominator)


# ---------------------------------------------------------------------------
# product-richness: every dense subset S0 of A has S0*S0 meeting S0


def _internal_products(a: GroupSubset) -> List[List[int]]:
    """prod[i][j] = position in a of a_i * a_j, or -1 when outside a."""
    g = a.group
    elems = a.to_index_list()
    pos = {e: t for t, e in enumerate(elems)}
    return [[pos.get(g.mul(x, y), -1) for y in elems] for x in elems]


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
            witness = tuple(elems[i] for i in combo)
            _assert_product_rich_witness(a, witness)
            return RegularityVerdict(VIOLATED, witness=(witness,))
    return RegularityVerdict(VERIFIED_EXACT)


def _assert_product_rich_witness(a: GroupSubset, subset: Tuple[int, ...]) -> None:
    g = a.group
    inside = set(subset)
    for x in subset:
        for y in subset:
            if g.mul(x, y) in inside:
                raise AssertionError("witness fails re-validation against the raw definition")


def _product_rich_sampled(a: GroupSubset, eps: Fraction, trials: int, seed: int) -> RegularityVerdict:
    k = a.card
    if k == 0:
        return RegularityVerdict(NO_VIOLATION_FOUND, samples=0)
    elems = a.to_index_list()
    prod = _internal_products(a)
    s_min = _min_qualifying_size(k, eps)
    rng = SplitMix64(derive(seed, 0x51C4))

    def violation_score(combo: List[int]) -> int:
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

    for _ in range(trials):
        combo = sorted(rng.sample_indices(k, s_min))
        score = violation_score(combo)
        # greedy descent: swap one member for an outsider while it helps
        improved = True
        while score > 0 and improved:
            improved = False
            outside = [i for i in range(k) if i not in combo]
            for oi, out_pos in enumerate(combo):
                for cand in outside:
                    trial = sorted(combo[:oi] + combo[oi + 1 :] + [cand])
                    s = violation_score(trial)
                    if s < score:
                        combo, score = trial, s
                        improved = True
                        break
                if improved:
                    break
        if score == 0:
            witness = tuple(elems[i] for i in combo)
            _assert_product_rich_witness(a, witness)
            return RegularityVerdict(VIOLATED, witness=(witness,))
    return RegularityVerdict(NO_VIOLATION_FOUND, samples=trials)


# ---------------------------------------------------------------------------
# regular position: (A0 A0^-1 A0)(B0 B0^-1 B0) meets C0 C0^-1 C0 for all
# dense subsets A0, B0, C0


def _sss_inv_sss(group, subset: Tuple[int, ...]) -> frozenset:
    """The set S S^-1 S for a tuple of element indices."""
    inv = group.inverse_table
    pair = {group.mul(x, int(inv[y])) for x in subset for y in subset}
    return frozenset(group.mul(p, z) for p in pair for z in subset)


def _products_meet(group, left: frozenset, right: frozenset, target: frozenset) -> bool:
    """Whether (left * right) intersects target, with early exit."""
    for x in left:
        for y in right:
            if group.mul(x, y) in target:
                return True
    return False


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
    if mode == "exact":
        for s in (a, b, c):
            if s.card > REGULAR_POSITION_EXACT_CAP:
                raise ExactCapExceeded(f"|set|={s.card} exceeds exact cap {REGULAR_POSITION_EXACT_CAP}")
        return _regular_position_exact(group, a, b, c, eps)
    if mode == "sampled":
        return _regular_position_sampled(group, a, b, c, eps, trials, seed)
    raise MalformedSpec(f"unknown mode {mode!r}")


def _qualifying_subsets(s: GroupSubset, eps: Fraction) -> List[Tuple[int, ...]]:
    """The subsets of s of the least qualifying size, in lexicographic order.
    Every violation shrinks to one made of such subsets, and an ascending
    enumeration of all sizes would find that one first."""
    return list(itertools.combinations(s.to_index_list(), _min_qualifying_size(s.card, eps)))


def _dedupe_by_sss(group, subsets: List[Tuple[int, ...]]):
    """Group subsets by their S S^-1 S value, keeping first representatives."""
    reps: List[Tuple[frozenset, Tuple[int, ...]]] = []
    seen: Dict[frozenset, int] = {}
    for sub in subsets:
        val = _sss_inv_sss(group, sub)
        if val not in seen:
            seen[val] = len(reps)
            reps.append((val, sub))
    return reps


def _regular_position_exact(group, a, b, c, eps: Fraction) -> RegularityVerdict:
    if min(a.card, b.card, c.card) == 0:
        return RegularityVerdict(VERIFIED_EXACT)
    reps_a = _dedupe_by_sss(group, _qualifying_subsets(a, eps))
    reps_b = _dedupe_by_sss(group, _qualifying_subsets(b, eps))
    reps_c = _dedupe_by_sss(group, _qualifying_subsets(c, eps))
    for ta, wa in reps_a:
        for tb, wb in reps_b:
            for tc, wc in reps_c:
                if not _products_meet(group, ta, tb, tc):
                    _assert_regular_witness(group, wa, wb, wc)
                    return RegularityVerdict(VIOLATED, witness=(wa, wb, wc))
    return RegularityVerdict(VERIFIED_EXACT)


def _assert_regular_witness(group, wa, wb, wc) -> None:
    ta = _sss_inv_sss(group, wa)
    tb = _sss_inv_sss(group, wb)
    tc = _sss_inv_sss(group, wc)
    if _products_meet(group, ta, tb, tc):
        raise AssertionError("witness fails re-validation against the raw definition")


def _regular_position_sampled(group, a, b, c, eps: Fraction, trials: int, seed: int) -> RegularityVerdict:
    if min(a.card, b.card, c.card) == 0:
        return RegularityVerdict(NO_VIOLATION_FOUND, samples=0)
    rng = SplitMix64(derive(seed, 0x3E6))
    sizes = [_min_qualifying_size(s.card, eps) for s in (a, b, c)]
    pools = [s.to_index_list() for s in (a, b, c)]
    for _ in range(trials):
        subs = [
            tuple(sorted(pool[i] for i in rng.sample_indices(len(pool), size)))
            for pool, size in zip(pools, sizes)
        ]
        vals = [_sss_inv_sss(group, sub) for sub in subs]
        if not _products_meet(group, vals[0], vals[1], vals[2]):
            _assert_regular_witness(group, *subs)
            return RegularityVerdict(VIOLATED, witness=tuple(subs))
    return RegularityVerdict(NO_VIOLATION_FOUND, samples=trials)
