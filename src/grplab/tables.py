"""Groups given by a Cayley table, and the group axiom checks.

A ``table:`` CSV is validated exactly at every order: it must be a Latin
square with a two-sided identity and pass Light's associativity test on a
greedy generating set (at most log2 n generators, n^2 triples each).
:func:`verify_group_axioms` runs the same checks on any group that has a
table, and sampled ones above TABLE_CAP.

:func:`grplab.groups.build_group` imports this module for the first
``table:`` spec it builds.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedSpec, NotAGroup
from .groups import (
    FiniteGroup,
    _check_cap,
    _distinct,
    _generating_set,
    _pair_blocks,
    _validate_identity_and_inverses,
)
from .rng import SplitMix64, derive

_ASSOC_SAMPLE_CAP = 50_000_000


class TableGroup(FiniteGroup):
    """Group given by an explicit validated Cayley table (identity at 0)."""

    def __init__(self, table: np.ndarray, spec_text: str) -> None:
        n = len(table)
        super().__init__(n, spec_text)
        self._table = np.asarray(table, dtype=np.int32)
        is_identity = self._table == 0
        hits = np.count_nonzero(is_identity, axis=1)
        bad = np.flatnonzero(hits != 1)
        if len(bad):
            raise NotAGroup(f"element {bad[0]} has {hits[bad[0]]} right inverses")
        self.inverse_table = is_identity.argmax(axis=1).astype(np.int32)
        self.is_abelian = bool(np.array_equal(self._table, self._table.T))

    def mul(self, i: int, j: int) -> int:
        return int(self._table[i, j])

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._table[a, b].astype(np.int64)


def _build_table_group(path: str, order_cap: int) -> FiniteGroup:
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"cannot read table file {path!r}: {exc}") from None
    n = len(lines)
    _check_cap(n, order_cap)
    # row widths first, so the numpy reader only ever meets a square table
    if any(line.count(",") != n - 1 for line in lines):
        raise NotAGroup(f"table must be square, got {n} rows")
    try:
        table = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        raise MalformedSpec(f"non-integer entry in table file {path!r}: {exc}") from None
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries out of range")

    _require_latin_square(table)
    identity = _find_identity(table)
    if identity != 0:
        # reindex so the identity sits at 0; other elements keep their order
        perm = [identity] + [i for i in range(n) if i != identity]
        pos = np.argsort(perm)
        table = pos[table[np.ix_(perm, perm)]]
    group = TableGroup(table.astype(np.int32), f"table:{path}")
    _require_associative(group)
    return group


def _require_latin_square(table: np.ndarray) -> None:
    """Every row and every column of ``table`` (entries in 0..n-1) hits all n values."""
    pos = np.arange(len(table))
    for line, hit_at in (("row", (pos[:, None], table)), ("column", (table, pos[None, :]))):
        hit = np.zeros(table.shape, dtype=bool)
        hit[hit_at] = True
        if not hit.all():
            raise NotAGroup(f"some {line} is not a permutation")


def _find_identity(table: np.ndarray) -> int:
    n = len(table)
    want = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], want) and np.array_equal(table[:, e], want):
            return e
    raise NotAGroup("no two-sided identity")


def _require_associative(group: FiniteGroup) -> None:
    """Exact associativity of a loop by Light's test on a generating set.

    The loop must be a Latin square with identity 0.  The elements a with
    (x*a)*y == x*(a*y) for all x, y are closed under the product, so the
    table is associative once every generator of :func:`_generating_set`
    passes (each element is a product of them), at |S|*n^2 triples.
    """
    idx = np.arange(group.order, dtype=np.int64)
    mul = group.mul_arrays
    for a in _generating_set(group):
        xa = mul(idx, a)
        ay = mul(a, idx)
        for lhs, rhs in zip(_pair_blocks(mul, xa, idx), _pair_blocks(mul, idx, ay)):
            if not np.array_equal(lhs, rhs):
                raise NotAGroup(f"associativity fails at generator {a}")
            del lhs, rhs


def verify_group_axioms(group: FiniteGroup, *, seed: int = 0) -> None:
    """Assert Latin-square rows/columns and associativity.

    Up to TABLE_CAP (4096) the checks are exact: full row/column checks on
    the Cayley table, the identity at 0 and Light's test.  Larger groups get
    sampled rows and columns and a seeded sample of 10*n^2 triples (capped).
    """
    n = group.order
    table = group.table
    if table is not None:
        _require_latin_square(table)
        # Light's test is exact on a loop, so 0 must be the identity
        _validate_identity_and_inverses(group)
        _require_associative(group)
        return
    idx = np.arange(n, dtype=np.int64)
    rng = SplitMix64(derive(seed, 1))
    for _ in range(min(n, 16)):
        i = rng.randrange(n)
        if len(_distinct(group.mul_arrays(np.full(n, i, dtype=np.int64), idx))) != n:
            raise NotAGroup(f"row {i} is not a permutation")
        if len(_distinct(group.mul_arrays(idx, np.full(n, i, dtype=np.int64)))) != n:
            raise NotAGroup(f"column {i} is not a permutation")
    rng = SplitMix64(derive(seed, 2))
    sample = min(10 * n * n, _ASSOC_SAMPLE_CAP)
    chunk = 1 << 19
    done = 0
    while done < sample:
        m = min(chunk, sample - done)
        i = rng.randrange_array(n, m)
        j = rng.randrange_array(n, m)
        k = rng.randrange_array(n, m)
        lhs = group.mul_arrays(group.mul_arrays(i, j), k)
        rhs = group.mul_arrays(i, group.mul_arrays(j, k))
        if not np.array_equal(lhs, rhs):
            raise NotAGroup("associativity fails on sampled triples")
        done += m
