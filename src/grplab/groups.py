"""Finite groups with a dense 0..n-1 element index space: the core.

Index 0 is always the identity.  Every group exposes scalar ``mul``/``inv``
and one vectorized product, ``mul_arrays``, used by every caller.  For
orders n <= TABLE_CAP the full Cayley table is a private cache behind
``mul_arrays``: products go to the subclass kernel (composition of point
images, addition mod n) until the kernel has evaluated n^2 of them, then
the table is built and every later product is a gather.
Building at that point costs at most twice the cheaper of "never build" and
"build first".  Scalar ``mul`` neither counts toward n^2 nor builds the
table: each class computes one product in plain Python.  Above TABLE_CAP
every vector product goes to the kernel.

This module holds what every group shares: the spec records and their
parser, :class:`FiniteGroup`, the blocks, :func:`build_group` with its
build check, subgroup closure and conjugacy classes.  Each family of groups
lives in a module of its own, which :func:`build_group` imports only when a
spec names it, so a run compiles only the families it builds:

    grplab.cyclic       Z/n and direct products
    grplab.pointimage   PSL2(q) and permutation groups (with gf, _baseindex)
    grplab.tables       table: CSV groups and verify_group_axioms

Construction is deterministic: the same specification always yields the
same indexing.  A family reads PRODUCT_BLOCK and TABLE_CAP through this
module at call time, never from a copy, so each tunable has one home.

Every "all x in one index array times all y in another" scan, here and in
the counting and set layers, goes through :func:`_pair_blocks`, at most
PRODUCT_BLOCK products per block; the check that each build runs sweeps
every element once through :func:`_index_blocks`, PRODUCT_BLOCK indices per
block.  At 2^16 a point-image
block peaks near 0.65 MB traced, so its temporaries fit a 2 MB L2 cache.

One closure under right multiplication builds a greedy generating set (at
most log2 n generators), [G,G] and subgroup: sets, and conjugation by that
set gives the conjugacy classes.

Spec grammar accepted by :func:`parse_group_spec`:

    Z/n                       cyclic group of order n
    Z/a x Z/b x ...           direct product of cyclic groups
    PSL2(q)                   q a prime power
    perm:(1 2 3);(1 2)        permutation group from cycle generators
    table:PATH                CSV Cayley table, n rows of n 0-based indices
"""

from __future__ import annotations

import re
from math import gcd, prod
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import MalformedSpec, NotAGroup, OrderCapExceeded

TABLE_CAP = 4096
DEFAULT_ORDER_CAP = 200_000
PRODUCT_BLOCK = 1 << 16


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of ``values``: plain ``np.unique``, which
    under numpy 2.4 imports ``numpy.ma`` (about 9 ms) to check for a mask."""
    out = np.sort(values, axis=None)
    if len(out) > 1:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


def _pair_blocks(mul, left: np.ndarray, right: np.ndarray):
    """Yield ``mul(left[lo:hi, None], right[None, :])`` for consecutive row
    ranges of ``left``, at most PRODUCT_BLOCK products per block (at least
    one row); none when either side is empty.  Each block is computed only
    when the previous one is taken, so a caller that drops its block holds
    one at a time."""
    if len(right):
        rows = max(1, PRODUCT_BLOCK // len(right))
        for lo in range(0, len(left), rows):
            yield mul(left[lo:lo + rows, None], right[None, :])


def _index_blocks(n: int):
    """Yield the indices 0..n-1 as consecutive int64 ranges of at most
    PRODUCT_BLOCK each."""
    for lo in range(0, n, PRODUCT_BLOCK):
        yield np.arange(lo, min(lo + PRODUCT_BLOCK, n), dtype=np.int64)


# ---------------------------------------------------------------------------
# specifications


class Cyclic(NamedTuple):
    """Z/n.  The spec records are NamedTuples, which cost a fraction of a
    dataclass to define at import; they compare as plain tuples, so
    ``Cyclic(5) == PSL2(5)``.  Nothing keys on spec records, and
    ``parse_group_spec("Z/5") == Cyclic(5)`` holds."""

    n: int

    def __str__(self) -> str:
        return f"Z/{self.n}"


class DirectProduct(NamedTuple):
    factors: Tuple["GroupSpec", ...]

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


class PSL2(NamedTuple):
    q: int

    def __str__(self) -> str:
        return f"PSL2({self.q})"


class Permutation(NamedTuple):
    generators: Tuple[Tuple[Tuple[int, ...], ...], ...]
    """Each generator is a tuple of cycles; cycle points are 1-based."""

    def __str__(self) -> str:
        gens = []
        for cycles in self.generators:
            gens.append("".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles))
        return "perm:" + ";".join(gens)


class TableSource(NamedTuple):
    path: str

    def __str__(self) -> str:
        return f"table:{self.path}"


GroupSpec = Union[Cyclic, DirectProduct, PSL2, Permutation, TableSource]

_CYCLIC_RE = re.compile(r"^Z/(\d+)$")
_PSL2_RE = re.compile(r"^PSL2\((\d+)\)$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the group spec grammar; raises MalformedSpec."""
    s = text.strip()
    if not s:
        raise MalformedSpec("empty group spec")
    if s.startswith("table:"):
        path = s[len("table:"):].strip()
        if not path:
            raise MalformedSpec("table: spec needs a path")
        return TableSource(path)
    if s.startswith("perm:"):
        return _parse_perm_spec(s[len("perm:"):])
    m = _PSL2_RE.match(s)
    if m:
        return PSL2(int(m.group(1)))
    parts = [p.strip() for p in re.split(r"\s+x\s+|(?<=\d)x(?=Z)", s)]
    factors = []
    for part in parts:
        m = _CYCLIC_RE.match(part)
        if not m:
            raise MalformedSpec(f"unrecognized group spec {text!r}")
        n = int(m.group(1))
        if n < 1:
            raise MalformedSpec(f"cyclic order must be >= 1, got {n}")
        factors.append(Cyclic(n))
    if len(factors) == 1:
        return factors[0]
    return DirectProduct(tuple(factors))


def _parse_perm_spec(body: str) -> Permutation:
    gens = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise MalformedSpec("empty permutation generator")
        if _CYCLE_RE.sub("", chunk).strip():
            raise MalformedSpec(f"unparsed text in permutation generator {chunk!r}")
        cycles = []
        for m in _CYCLE_RE.finditer(chunk):
            pts = [p for p in re.split(r"[,\s]+", m.group(1).strip()) if p]
            try:
                cycle = tuple(int(p) for p in pts)
            except ValueError:
                raise MalformedSpec(f"bad cycle {m.group(0)!r}") from None
            if any(p < 1 for p in cycle):
                raise MalformedSpec("cycle points are 1-based positive integers")
            if len(set(cycle)) != len(cycle):
                raise MalformedSpec(f"repeated point in cycle {m.group(0)!r}")
            if cycle:
                cycles.append(cycle)
        if not cycles:
            raise MalformedSpec(f"generator {chunk!r} has no cycles")
        gens.append(tuple(cycles))
    return Permutation(tuple(gens))


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """Base class; concrete groups fill in the scalar ``mul``, _mul_kernel,
    inverse_table and metadata.  Only ``mul_arrays`` products count toward
    the n^2 that builds the Cayley table; ``mul`` is one product in plain
    Python and never builds it."""

    order: int
    spec_text: str
    inverse_table: np.ndarray
    is_abelian: bool
    cyclic_moduli: Optional[Tuple[int, ...]] = None

    def __init__(self, order: int, spec_text: str) -> None:
        self.order = order
        self.spec_text = spec_text
        self._table: Optional[np.ndarray] = None
        self._kernel_products = 0

    # -- scalar ops -------------------------------------------------------
    def mul(self, i: int, j: int) -> int:
        """The subclass's own product of two element indices, in plain Python."""
        raise NotImplementedError

    def inv(self, i: int) -> int:
        return int(self.inverse_table[i])

    def pow(self, i: int, m: int) -> int:
        """i**m for m >= 0 by binary exponentiation."""
        acc = 0
        base = i
        while m:
            if m & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            m >>= 1
        return acc

    def element_label(self, i: int) -> str:
        return str(i)

    # -- vector ops -------------------------------------------------------
    def mul_arrays(self, a: np.ndarray, b: np.ndarray, *more: np.ndarray) -> np.ndarray:
        """Elementwise product of index arrays (numpy broadcasting rules);
        with ``more``, of the word a*b*..., multiplied left to right.

        Gathers from the Cayley table once it is built, a word one gather a
        factor.  Below TABLE_CAP the table is built when the kernel products
        evaluated so far by this method, this call's included, reach n^2; a
        word of k factors counts k - 1 products an entry.  A point-image
        kernel composes a word's images and looks it up once; every other
        kernel folds it pairwise.  The axiom checks of :mod:`grplab.tables`
        keep pairwise products, since they test associativity itself.
        """
        table = self._table
        if table is None and self.order <= TABLE_CAP:
            self._kernel_products += np.broadcast(a, b, *more).size * (1 + len(more))
            if self._kernel_products >= self.order * self.order:
                table = self.table
        if table is None:
            return self._mul_word((a, b) + more) if more else self._mul_kernel(a, b)
        out = table[a, b]
        for c in more:
            out = table[out, c]
        return out.astype(np.int64)

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The subclass's own elementwise product, without the table."""
        raise NotImplementedError

    def _mul_word(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The product of a word without the table: the kernel, left to right."""
        out = factors[0]
        for f in factors[1:]:
            out = self._mul_kernel(out, f)
        return out

    def pow_arrays(self, idx: np.ndarray, m: int) -> np.ndarray:
        acc = np.zeros(np.broadcast(idx, idx).shape, dtype=np.int64)
        base = np.array(idx, dtype=np.int64)
        while m:
            if m & 1:
                acc = self.mul_arrays(acc, base)
            m >>= 1
            if m:
                base = self.mul_arrays(base, base)
        return acc

    @property
    def table(self) -> Optional[np.ndarray]:
        """Full Cayley table for orders <= TABLE_CAP, else None."""
        if self._table is None and self.order <= TABLE_CAP:
            n = self.order
            rows = np.arange(n, dtype=np.int64)
            table = np.empty((n, n), dtype=np.int32)
            lo = 0
            for block in _pair_blocks(self._mul_kernel, rows, rows):
                table[lo:lo + len(block)] = block
                lo += len(block)
                del block
            self._table = table
        return self._table

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and self.spec_text == other.spec_text
        )

    def __hash__(self) -> int:
        return hash((self.order, self.spec_text))

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.spec_text} order={self.order}>"


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or a == b


# ---------------------------------------------------------------------------
# construction and validation


def build_group(spec: Union[GroupSpec, str], *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Construct the group described by ``spec`` (object or grammar string)."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    group = _build(spec, order_cap)
    _validate_identity_and_inverses(group)
    return group


def _build(spec: GroupSpec, order_cap: int) -> FiniteGroup:
    # each family's module is imported by the first spec that names it
    if isinstance(spec, Cyclic):
        _check_cap(spec.n, order_cap)
        from .cyclic import CyclicGroup

        return CyclicGroup(spec.n)
    if isinstance(spec, DirectProduct):
        if not spec.factors:
            raise MalformedSpec("direct product needs at least one factor")
        if all(isinstance(f, Cyclic) for f in spec.factors):
            # the whole order is known before any factor is built
            _check_cap(prod(f.n for f in spec.factors), order_cap)  # type: ignore[union-attr]
        comps = [_build(f, order_cap) for f in spec.factors]
        _check_cap(prod(g.order for g in comps), order_cap)
        from .cyclic import GeneralDirectProductGroup

        return GeneralDirectProductGroup(comps, str(spec))
    if isinstance(spec, PSL2):
        # the cap comes before factoring q, whose trial division is slow;
        # q < 2 is no field size, which the field itself reports
        q = spec.q
        if q >= 2:
            _check_cap(q * (q * q - 1) // gcd(2, q - 1), order_cap)
        from .pointimage import PSL2Group

        return PSL2Group(q)  # raises NotPrimePower
    if isinstance(spec, Permutation):
        from .pointimage import PermutationGroup

        return PermutationGroup(spec.generators, str(spec), order_cap)
    if isinstance(spec, TableSource):
        from .tables import _build_table_group

        return _build_table_group(spec.path, order_cap)
    raise MalformedSpec(f"unknown spec {spec!r}")


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapExceeded(f"group order {order} exceeds cap {cap}")
    if order < 1:
        raise MalformedSpec("group order must be positive")


def _subgroup_closure(group: FiniteGroup, gens: Sequence[int], member: Optional[np.ndarray] = None) -> np.ndarray:
    """Close the mask ``member`` (default: the identity), which must be closed
    under ``gens[:-1]``, in place under right multiplication by ``gens``, one
    pair block at a time, and return it.  The first round takes the last
    generator only, so each element meets each generator once.  If ``member``
    is the subgroup ``gens[:-1]`` generate, the result is the one ``gens`` do."""
    right = first = np.asarray(gens, dtype=np.int64)
    if member is None:
        member = np.arange(group.order) == 0
    else:
        first = right[-1:]
    frontier = np.flatnonzero(member)
    while len(frontier) and len(right):
        found = []
        for block in _pair_blocks(group.mul_arrays, frontier, first):
            prods = _distinct(block)
            del block
            new = prods[~member[prods]]
            member[new] = True
            found.append(new)
        frontier = np.concatenate(found)
        first = right
    return member


def _generating_set(group: FiniteGroup) -> List[int]:
    """Greedy generators, each the least index outside the closure C of the
    earlier ones.  In a group C is the subgroup they generate, so each new
    generator at least doubles |C| and |C| divides n: at most log2 n of them.
    A Latin square with identity 0 that breaks this is not associative.
    """
    n = group.order
    member = _subgroup_closure(group, ())
    size = 1
    gens: List[int] = []
    while size < n:
        gens.append(int(np.argmin(member)))
        _subgroup_closure(group, gens, member)
        grown = int(np.count_nonzero(member))
        if grown < 2 * size or n % grown:
            raise NotAGroup(f"associativity fails: generators {gens} close on {grown} of {n} elements")
        size = grown
    return gens


def _validate_identity_and_inverses(group: FiniteGroup) -> None:
    """0 is a two-sided identity and ``inverse_table`` holds inverses.  One
    sweep over blocks of PRODUCT_BLOCK indices runs the three checks, with
    the identity as a scalar operand and the block's int32 inverses as they
    are.  A left-identity failure anywhere is reported before a
    right-identity one, and that before a wrong inverse: the sweep stops at
    the first left failure, and after a right failure checks only the left."""
    mul = group.mul_arrays
    right = inverses = True
    for idx in _index_blocks(group.order):
        if not np.array_equal(mul(0, idx), idx):
            raise NotAGroup("identity fails on the left")
        right = right and np.array_equal(mul(idx, 0), idx)
        if right and inverses:
            inv = group.inverse_table[idx]
            inverses = not (np.count_nonzero(mul(idx, inv)) or np.count_nonzero(mul(inv, idx)))
    if not right:
        raise NotAGroup("identity fails on the right")
    if not inverses:
        raise NotAGroup("inverse table is wrong")


# ---------------------------------------------------------------------------
# conjugacy and element orders


class ConjugacyClasses(NamedTuple):
    """Partition of the element indices into conjugacy classes.

    Class 0 is the singleton {identity}; classes are sorted by least member.
    """

    partition: Tuple[Tuple[int, ...], ...]
    class_of: np.ndarray

    def __eq__(self, other: object) -> bool:
        # tuple equality would ask an array of ``class_of`` for one truth value
        if not isinstance(other, ConjugacyClasses):
            return NotImplemented
        return self.partition == other.partition and np.array_equal(self.class_of, other.class_of)

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    @property
    def count(self) -> int:
        return len(self.partition)

    def sizes(self) -> List[int]:
        return [len(c) for c in self.partition]

    def representatives(self) -> List[int]:
        return [c[0] for c in self.partition]


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Exact conjugacy classes: the components of the graph x -> s^-1 x s over
    the greedy generating set S, at 2n|S| products (none if abelian: every
    element is its own class).  Each label falls to its neighbours' least
    label, then to its label's label, until nothing moves; labels never leave
    their class, so each class ends labelled by its least member.
    """
    n = group.order
    label = idx = np.arange(n, dtype=np.int64)
    if not group.is_abelian:
        gens = _generating_set(group)
        edges = np.empty((2 * len(gens), n), dtype=np.int64)
        for k, s in enumerate(gens):
            fwd = group.mul_arrays(group.inv(s), idx, s)
            edges[2 * k] = fwd
            edges[2 * k + 1][fwd] = idx  # the reverse edges, by one scatter
        while True:
            low = np.minimum(label, label[edges].min(axis=0))
            low = low[low]
            if np.array_equal(low, label):
                break
            label = low
    _, class_of = np.unique(label, return_inverse=True)
    members = np.argsort(class_of, kind="stable").tolist()
    ends = np.cumsum(np.bincount(class_of)).tolist()
    partition = tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))
    return ConjugacyClasses(partition, class_of.astype(np.int64, copy=False))


def element_order(group: FiniteGroup, i: int) -> int:
    """Least m >= 1 with i**m equal to the identity."""
    if not 0 <= i < group.order:
        raise MalformedSpec(f"element index {i} out of range")
    m = 1
    acc = i
    while acc != 0:
        acc = group.mul(acc, i)
        m += 1
    return m
