"""Mixing tuples and the walks over their increasing-order subproducts.

a_F is the product of the a_i with i in F, in increasing index order, for
every nonempty F of {1..n}.  ``_subproducts`` is the one recurrence that
forms them, and ``_prefixes`` the one depth-first walk over the tuples
whose subproducts pass a test; the mixing count walks a_1..a_{n-2} and
counts the last two positions of each prefix with one pair count of
:mod:`grplab.counting`.  The convolution identity is here too.

Only ``mixing``, ``count --equation mixing:n`` and :mod:`grplab.ramsey`
load this module, so the xyz, ap3 and power counts never compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Tuple

import numpy as np

from .counting import ENGINE_BRUTE, CountReport, _pair_count, _resolve_engine
from .errors import BudgetExceeded, GroupMismatch, MalformedSpec
from .groups import FiniteGroup
from .sets import GroupSubset, _require_same_group, inverse_set, product_set

MIXING_BUDGET = 10**9


# ---------------------------------------------------------------------------
# mixing tuples: every increasing-order subproduct lands in its target set


def _check_mixing_n(n: int) -> None:
    """Refuse a mixing:n count with n outside 2..4, before any subset is listed."""
    if n < 2:
        raise MalformedSpec(f"mixing tuples need n >= 2, got {n}")
    if n > 4:
        raise BudgetExceeded(f"mixing tuples supported for n in 2..4, got {n}")


def all_nonempty_subsets(n: int) -> List[Tuple[int, ...]]:
    """Nonempty subsets of {1..n} ordered by their binary encoding."""
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i + 1 for i in range(n) if (mask >> i) & 1))
    return out


def count_mixing_tuples(
    n: int,
    sets: Mapping[Tuple[int, ...], GroupSubset],
    engine: str = "auto",
) -> CountReport:
    """|{(a_1..a_n) : a_F in A_F for every nonempty F}| for n in 2..4.

    a_F is the product of the a_i with i in F, taken in increasing index
    order; ``sets`` is keyed by the tuples of ``all_nonempty_subsets(n)``.
    Normalizer: prod_F |A_F| / |G|^(2^n - 1 - n).  The degenerate count is
    1 when the all-identity tuple qualifies, else 0.
    """
    _check_mixing_n(n)
    want = all_nonempty_subsets(n)
    missing = [f for f in want if f not in sets]
    if missing:
        raise GroupMismatch(f"missing target sets for subsets {missing}")
    g = _require_same_group(*[sets[f] for f in want])
    engine = _resolve_engine(g, engine, sets[(n - 1,)].card * sets[(n,)].card)
    if g.order**n > MIXING_BUDGET:
        raise BudgetExceeded(f"|G|^{n} = {g.order ** n} exceeds budget {MIXING_BUDGET}")

    if engine == ENGINE_BRUTE:
        count = _mixing_brute(g, n, sets)
    else:
        count = _mixing_prefix(g, n, sets, engine)

    degenerate = int(all(sets[f].contains(0) for f in want))
    prod_sizes = 1
    for f in want:
        prod_sizes *= sets[f].card
    normalizer = Fraction(prod_sizes, g.order ** (2**n - 1 - n))
    extras = {"n": n}
    return CountReport(f"mixing:{n}", count, normalizer, degenerate, engine, extras)


def _subproducts(mul, elements, prods=()) -> list:
    """a_F for every nonempty F, in the order of ``all_nonempty_subsets``.

    The a_F whose largest index is i are a_i, then a_F' * a_i for each
    earlier a_F' in order.  ``prods`` are the subproducts of a prefix in
    that order; the result extends a copy of them by ``elements``.  ``mul``
    is ``group.mul`` for indices, or ``group.mul_arrays`` for index arrays
    (one array per position, many tuples at once)."""
    prods = list(prods)
    for a in elements:
        prods += [a] + [mul(p, a) for p in prods]
    return prods


def _mixing_brute(g: FiniteGroup, n: int, fams: Dict[Tuple[int, ...], GroupSubset]) -> int:
    import itertools

    masks = [fams[f].mask for f in all_nonempty_subsets(n)]
    mul = g.mul
    return sum(
        all(mask[v] for mask, v in zip(masks, _subproducts(mul, tup)))
        for tup in itertools.product(range(g.order), repeat=n)
    )


def _prefixes(mul, choices, inside, length, prefix=(), prods=()):
    """Depth-first walk over the tuples that extend ``prefix`` to ``length``.

    a_i is drawn from ``choices(i)``, in its order; a tuple is kept when
    each of its subproducts a_F passes ``inside(k, a_F)``, with k the
    position of F in ``all_nonempty_subsets`` order, and a prefix is dropped
    at its first failing subproduct.  Yields (prefix, prods) for every kept
    tuple, lexicographically in the order of the choices."""
    if len(prefix) == length:
        yield prefix, prods
        return
    for a in choices(len(prefix) + 1):
        new = _subproducts(mul, (a,), prods)
        if all(inside(k, new[k]) for k in range(len(prods), len(new))):
            yield from _prefixes(mul, choices, inside, length, prefix + (a,), new)


def _mixing_prefix(g: FiniteGroup, n: int, fams: Dict[Tuple[int, ...], GroupSubset], engine: str) -> int:
    """Walk a_1..a_{n-2} under their constraints, then count the last two
    positions of each prefix with one pair count by ``engine``.

    With p_F the prefix's subproducts, (a_{n-1}, a_n) = (x, y) qualifies
    when x lies in X = A_{n-1} meet p_F^-1 A_{F+(n-1)}, y in
    Y = A_n meet p_F^-1 A_{F+(n)}, and xy in
    W = A_{n-1,n} meet p_F^-1 A_{F+(n-1,n)}, intersected over every F.
    ``masks[m - 1]`` is A_F for the F of binary code m, so the prefix's
    p_F sits at position m - 1 too; for n = 2 this is the xyz count."""
    masks = [fams[f].mask for f in all_nonempty_subsets(n)]
    half = 1 << (n - 2)  # the code of {n-1}; {n} is 2*half
    elements = np.arange(g.order, dtype=np.int64)
    count = 0
    walk = _prefixes(g.mul, lambda i: fams[(i,)].indices.tolist(), lambda k, v: masks[k][v], n - 2)
    for _, prods in walk:
        x, y, w = (masks[k * half - 1].copy() for k in (1, 2, 3))
        for m, p in enumerate(prods, 1):
            row = g.mul_arrays(p, elements)
            x &= masks[m + half - 1][row]
            y &= masks[m + 2 * half - 1][row]
            w &= masks[m + 3 * half - 1][row]
        count += _pair_count(g, np.flatnonzero(x), np.flatnonzero(y), w, engine)
    return count


# ---------------------------------------------------------------------------
# the |X x Y| = sum over x in XY^-1 of |X meet xY| identity


class ConvolutionIdentityResult(NamedTuple):
    lhs: int
    rhs: int
    translate_count: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
            "translate_count": self.translate_count,
        }


def convolution_identity_check(x: GroupSubset, y: GroupSubset) -> ConvolutionIdentityResult:
    """Verify |X||Y| = sum over t in XY^-1 of |X meet tY| exactly.

    The sum counts the pairs (t, y) in XY^-1 x Y with ty in X: one pair
    count."""
    g = _require_same_group(x, y)
    trans = product_set(x, inverse_set(y))
    rhs = _pair_count(g, trans.indices, y.indices, x.mask)
    return ConvolutionIdentityResult(x.card * y.card, rhs, trans.card)
