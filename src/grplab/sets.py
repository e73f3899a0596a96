"""Bitset-backed subsets of a finite group and exact set arithmetic.

A :class:`GroupSubset` is a boolean membership mask over the element index
space plus cached cardinality; densities are exact fractions.  A product set
is the support of the product counts ``counting._product_counts``: one FFT
convolution or a blocked scan of all pairs, so memory stays bounded.
``set_statistics`` reads the doubling, tripling, growth and product-free
figures of one set in one pass.

Set spec grammar accepted by :func:`parse_set_spec`:

    interval:lo,len
    gap:base;step1,len1;step2,len2
    random:density,seed
    subgroup:g1,g2
    explicit:i1,i2,...
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import EmptySet, GroupMismatch, KindUnsupportedForGroup, MalformedSpec
from .groups import FiniteGroup, _pair_blocks, _subgroup_closure, same_group
from .rng import SplitMix64


class GroupSubset:
    """Immutable subset of a group's element indices."""

    __slots__ = ("group", "mask", "card", "_indices")

    def __init__(self, group: FiniteGroup, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise MalformedSpec(f"mask length {mask.shape} != group order {group.order}")
        self.group = group
        self.mask = mask
        self.mask.setflags(write=False)
        self.card = int(mask.sum())
        self._indices: Optional[np.ndarray] = None

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        mask = np.zeros(group.order, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if len(idx):
            if idx.min() < 0 or idx.max() >= group.order:
                raise MalformedSpec("element index out of range")
            mask[idx] = True
        return cls(group, mask)

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def empty(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, np.zeros(group.order, dtype=bool))

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.nonzero(self.mask)[0].astype(np.int64)
        return self._indices

    @property
    def density(self) -> Fraction:
        return Fraction(self.card, self.group.order)

    def contains(self, i: int) -> bool:
        return bool(self.mask[i])

    def to_index_list(self) -> List[int]:
        return [int(i) for i in self.indices]

    def to_json(self) -> str:
        return json.dumps(self.to_index_list())

    def __len__(self) -> int:
        return self.card

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupSubset)
            and same_group(self.group, other.group)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mask.tobytes()))

    def __repr__(self) -> str:
        shown = self.to_index_list()
        body = str(shown) if self.card <= 12 else f"[{shown[0]}..]({self.card} elems)"
        return f"<GroupSubset {body} of {self.group.spec_text}>"


def _require_same_group(*sets: GroupSubset) -> FiniteGroup:
    g = sets[0].group
    for s in sets[1:]:
        if not same_group(g, s.group):
            raise GroupMismatch(f"sets over {g.spec_text} and {s.group.spec_text}")
    return g


# ---------------------------------------------------------------------------
# exact set arithmetic


def product_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """Exact productset {x*y : x in a, y in b}: the support of the product counts."""
    return _product(_require_same_group(a, b), a.indices, b.indices)


def _product(g: FiniteGroup, left, right) -> GroupSubset:
    """The support of ``counting._product_counts`` of two index arrays or
    ``counting._Factor``s, a factor's spectrum reused across its products."""
    from .counting import _product_counts

    return GroupSubset(g, _product_counts(g, left, right) > 0)


def _factor(a: GroupSubset):
    from .counting import _Factor

    return _Factor(a.group, a.indices)


def inverse_set(a: GroupSubset) -> GroupSubset:
    out = np.zeros(a.group.order, dtype=bool)
    out[a.group.inverse_table[a.indices]] = True
    return GroupSubset(a.group, out)


def symmetrize(a: GroupSubset) -> GroupSubset:
    """a, its inverses, and the identity; size is at most 2|a|+1."""
    out = a.mask.copy()
    out[a.group.inverse_table[a.indices]] = True
    out[0] = True
    return GroupSubset(a.group, out)


def _symmetric_powers(a: GroupSubset, m_max: int):
    """S, S^2, ... up to S^m_max for S = symmetrize(a), each S^m S formed
    against one factor of S.  S holds the identity, so S^m lies in S^(m+1);
    once S^m S = S^m or S^m = G, S^m is a subgroup that every later power
    equals, and the walk stops there."""
    g = a.group
    acc = symmetrize(a)
    base = left = _factor(acc)
    yield acc
    for _ in range(m_max - 1):
        if acc.card == g.order:
            return
        nxt = _product(g, left, base)
        if nxt.card == acc.card:
            return
        acc, left = nxt, nxt.indices
        yield acc


def iterated_product(a: GroupSubset, m: int) -> GroupSubset:
    """m-fold productset of symmetrize(a); m=1 gives symmetrize(a) itself."""
    if m < 1:
        raise MalformedSpec(f"iteration count must be >= 1, got {m}")
    for acc in _symmetric_powers(a, m):
        pass
    return acc


def doubling_constant(a: GroupSubset) -> Fraction:
    """|a*a| / |a| as an exact fraction."""
    if a.card == 0:
        raise EmptySet("doubling constant of the empty set")
    return Fraction(product_set(a, a).card, a.card)


def tripling_constant(a: GroupSubset, variant: str = "aaa") -> Fraction:
    """|a*a*a|/|a| ("aaa") or |a*a^-1*a|/|a| ("aia")."""
    if a.card == 0:
        raise EmptySet("tripling constant of the empty set")
    if variant not in ("aaa", "aia"):
        raise MalformedSpec(f"unknown tripling variant {variant!r}")
    f = _factor(a)
    return Fraction(_times(_product(a.group, f, f if variant == "aaa" else f.inverse()), f), a.card)


def _times(x: GroupSubset, f) -> int:
    """|X F| for a nonempty factor F: |G| when X is all of G, else one product."""
    return x.card if x.card == x.group.order else _product(x.group, x.indices, f).card


def growth_profile(a: GroupSubset, m_max: int) -> List[Fraction]:
    """Sizes of the iterated symmetrized products, normalized by |a|."""
    if a.card == 0:
        raise EmptySet("growth profile of the empty set")
    return _profile(a, m_max)


def _profile(a: GroupSubset, m_max: int) -> List[Fraction]:
    """|S^m| / |a| for m = 1..m_max; the powers past the walk's stop repeat
    its last size."""
    if m_max < 1:
        raise MalformedSpec(f"m_max must be >= 1, got {m_max}")
    sizes = [Fraction(p.card, a.card) for p in _symmetric_powers(a, m_max)]
    return sizes + sizes[-1:] * (m_max - len(sizes))


def is_product_free(a: GroupSubset) -> bool:
    """True iff no x, y in a have x*y in a; a scan stops at the first such x*y."""
    from .counting import ENGINE_CAYLEY, _resolve_engine

    if _resolve_engine(a.group, "auto", a.card * a.card) != ENGINE_CAYLEY:
        return not product_set(a, a).mask[a.mask].any()
    for block in _pair_blocks(a.group.mul_arrays, a.indices, a.indices):
        if a.mask[block].any():
            return False
        del block
    return True


class SetStatistics(NamedTuple):
    """The small-doubling and small-tripling figures of one set: None, None,
    None, [] and True for the empty set."""

    doubling: Optional[Fraction]
    tripling_aaa: Optional[Fraction]
    tripling_aia: Optional[Fraction]
    growth_profile: List[Fraction]
    product_free: bool


def set_statistics(a: GroupSubset, m_max: int) -> SetStatistics:
    """|AA|/|A|, |AAA|/|A|, |AA^-1A|/|A|, the growth profile up to m_max and
    whether A is product-free, in one pass.

    A*A is formed once and gives the doubling, the product A*A*A and
    product-freeness (A*A misses A); a product of all of G with A is G, so
    it is not formed.  On a cyclic product each set is transformed once:
    A's spectrum serves A*A, A*A*A and A*A^-1*A, and A^-1's is its
    conjugate.  The same values as ``doubling_constant``,
    ``tripling_constant``, ``growth_profile`` and ``is_product_free``."""
    if a.card == 0:
        return SetStatistics(None, None, None, [], True)
    g = a.group
    profile = _profile(a, m_max)
    f = _factor(a)
    aa = _product(g, f, f)
    doubling, free, aaa = aa.card, not aa.mask[a.mask].any(), _times(aa, f)
    # A*A and its index array, up to |G| entries, go before the next
    # product, whose temporaries would otherwise stack on top of them
    del aa
    aia = _times(_product(g, f, f.inverse()), f)
    return SetStatistics(
        Fraction(doubling, a.card), Fraction(aaa, a.card), Fraction(aia, a.card), profile, free
    )


# ---------------------------------------------------------------------------
# structured set constructors


class Interval(NamedTuple):
    """interval:lo,len.  Like the group specs, the set specs are NamedTuples
    and compare as plain tuples: ``Interval(0, 5) == RandomSet(0, 5)``."""

    lo: int
    length: int

    def __str__(self) -> str:
        return f"interval:{self.lo},{self.length}"


class GapSet(NamedTuple):
    """Generalized arithmetic progression {base + sum k_i * step_i}."""

    base: int
    steps: Tuple[int, ...]
    lens: Tuple[int, ...]

    def __str__(self) -> str:
        dims = ";".join(f"{s},{l}" for s, l in zip(self.steps, self.lens))
        return f"gap:{self.base};{dims}"


class RandomSet(NamedTuple):
    density: float
    seed: int

    def __str__(self) -> str:
        return f"random:{self.density},{self.seed}"


class SubgroupSet(NamedTuple):
    generators: Tuple[int, ...]

    def __str__(self) -> str:
        return "subgroup:" + ",".join(str(g) for g in self.generators)


class ExplicitSet(NamedTuple):
    indices: Tuple[int, ...]

    def __str__(self) -> str:
        return "explicit:" + ",".join(str(i) for i in self.indices)


SetSpec = Union[Interval, GapSet, RandomSet, SubgroupSet, ExplicitSet]


def parse_set_spec(text: str) -> SetSpec:
    s = text.strip()
    kind, _, body = s.partition(":")
    try:
        if kind == "interval":
            lo, length = (int(x) for x in body.split(","))
            return Interval(lo, length)
        if kind == "gap":
            parts = body.split(";")
            base = int(parts[0])
            steps, lens = [], []
            for dim in parts[1:]:
                step, ln = (int(x) for x in dim.split(","))
                steps.append(step)
                lens.append(ln)
            if not steps:
                raise MalformedSpec(f"gap spec needs at least one dimension: {text!r}")
            return GapSet(base, tuple(steps), tuple(lens))
        if kind == "random":
            density, seed = body.split(",")
            return RandomSet(float(density), int(seed))
        if kind == "subgroup":
            gens = tuple(int(x) for x in body.split(",")) if body else ()
            return SubgroupSet(gens)
        if kind == "explicit":
            idx = tuple(int(x) for x in body.split(",")) if body else ()
            return ExplicitSet(idx)
    except (ValueError, MalformedSpec) as exc:
        if isinstance(exc, MalformedSpec):
            raise
        raise MalformedSpec(f"bad set spec {text!r}") from None
    raise MalformedSpec(f"unknown set kind in {text!r}")


def _powers(group: FiniteGroup, step: int, length: int) -> List[int]:
    """step^k for k = 0 .. length-1, cut at the order of ``step``: the
    powers repeat with that period, so the cut keeps the same set."""
    out = [0]
    power = step
    while len(out) < length and power != 0:
        out.append(power)
        power = group.mul(power, step)
    return out


def make_set(group: FiniteGroup, spec: Union[SetSpec, str]) -> GroupSubset:
    """Build a deterministic subset from a set spec (object or string)."""
    if isinstance(spec, str):
        spec = parse_set_spec(spec)
    n = group.order
    if isinstance(spec, Interval):
        if group.cyclic_moduli is None:
            raise KindUnsupportedForGroup("interval sets need a cyclic product group")
        if not 0 <= spec.length <= n:
            raise MalformedSpec(f"interval length {spec.length} out of range")
        idx = (spec.lo + np.arange(spec.length, dtype=np.int64)) % n
        return GroupSubset.from_indices(group, idx)
    if isinstance(spec, GapSet):
        if group.cyclic_moduli is None:
            raise KindUnsupportedForGroup("gap sets need a cyclic product group")
        if len(spec.steps) != len(spec.lens) or any(l < 1 for l in spec.lens):
            raise MalformedSpec(f"bad gap dimensions {spec}")
        cur = GroupSubset.from_indices(group, [spec.base % n])
        for step, ln in zip(spec.steps, spec.lens):
            cur = product_set(cur, GroupSubset.from_indices(group, _powers(group, step % n, ln)))
        return cur
    if isinstance(spec, RandomSet):
        if not 0.0 <= spec.density <= 1.0:
            raise MalformedSpec(f"density {spec.density} outside [0,1]")
        return GroupSubset(group, SplitMix64(spec.seed).bernoulli_array(n, spec.density))
    if isinstance(spec, SubgroupSet):
        for g in spec.generators:
            if not 0 <= g < n:
                raise MalformedSpec(f"generator index {g} out of range")
        return GroupSubset(group, _subgroup_closure(group, spec.generators))
    if isinstance(spec, ExplicitSet):
        return GroupSubset.from_indices(group, spec.indices)
    raise MalformedSpec(f"unknown set spec {spec!r}")
