"""Finite groups with a dense 0..n-1 element index space.

Index 0 is always the identity.  Every group exposes scalar ``mul``/``inv``
and one vectorized product, ``mul_arrays``, used by every caller.  For
orders n <= TABLE_CAP the full Cayley table is a private cache behind
``mul_arrays``: products go to the subclass kernel (composition of point
images, addition mod n) until the kernel has evaluated n^2 of them, then
the table is built and every later product is a gather.
Building at that point costs at most twice the cheaper of "never build" and
"build first".  Scalar ``mul`` neither counts toward n^2 nor builds the
table: each class computes one product in plain Python, PSL2 and
permutation groups over zero-copy memoryviews of their kernel's own arrays.
Above TABLE_CAP every vector product goes to the kernel.  PSL2(q) and
permutation groups share one kernel (:class:`PointImageGroup`): an element
is its images of the points it acts on (PSL2(q) on the q + 1 points of the
projective line), a product's image of x is f(g(x)), and the product is
found by its images of a greedy base of the action in dense tables of the
platform index type: one over the leading base points (PSL2's whole base),
then one a base level.  Each operand is widened once.  When the left factor
varies along rows and the right along columns (every pair scan), each left
row's images are gathered once and read at the right factor's base images;
a word a*b*c... composes its images right to left and is looked up once.
A direct product
(``Z/a x Z/b`` included) indexes its elements in mixed radix, last factor
fastest.  Z/n and every product of cyclic groups, nested ones included, add
digit by digit with carries dropped (:func:`_cyclic_mul`): x + y, less m*s
for each digit of modulus m and stride s whose two summands reach m, in a
few division-light passes (int32 below order 2^30).  Other direct products
multiply factor by factor through each factor's kernel.  A direct
product's inverse table is the outer sum of its factors' tables, each
times its stride.
Construction works on whole arrays: PSL2(q) lists SL2(q) in closed form
and takes each element's point images from the field tables, and a
permutation group closes its generators one breadth-first layer of keys at
a time.  It is deterministic: the same specification always yields the
same indexing.

Every "all x in one index array times all y in another" scan, here and in
the counting and set layers, goes through :func:`_pair_blocks`, at most
PRODUCT_BLOCK products per block; the check that each build runs sweeps
every element once through :func:`_index_blocks`, PRODUCT_BLOCK indices per
block.  At 2^16 a point-image
block peaks near 0.65 MB traced, so its temporaries fit a 2 MB L2 cache.

A ``table:`` CSV is validated exactly at every order: it must be a Latin
square with a two-sided identity and pass Light's associativity test on a
greedy generating set (at most log2 n generators, n^2 triples each).  One
closure under right multiplication builds that set, [G,G] and subgroup: sets,
and conjugation by that set gives the conjugacy classes.

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
from .gf import PrimePowerField
from .rng import SplitMix64, derive

TABLE_CAP = 4096
DEFAULT_ORDER_CAP = 200_000
PRODUCT_BLOCK = 1 << 16
_ASSOC_SAMPLE_CAP = 50_000_000


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


def _cyclic_digits(moduli: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """(m, s) for each digit of a mixed-radix index with moduli ``moduli``
    (last fastest) and m > 1, s the product of the moduli after m."""
    digits = []
    s = 1
    for m in reversed(moduli):
        if m > 1:
            digits.append((m, s))
        s *= m
    return tuple(digits)


def _radix_digits(x: np.ndarray, moduli: Sequence[int]):
    """Yield the mixed-radix digits of indices ``x`` over ``moduli``, both
    fastest first: each is q - q // m * m for q the quotient left by the
    digits before it, one ``//`` a digit (an int64 ``%`` costs four), and
    the leading digit is the last quotient."""
    for m in moduli[:-1]:
        q = x // m
        yield x - q * m
        x = q
    yield x


def _cyclic_mul(digits: Tuple[Tuple[int, int], ...], n: int, a, b) -> np.ndarray:
    """Elementwise product in the cyclic product of order ``n`` whose digits
    (m, s) come from :func:`_cyclic_digits`: x + y, less m*s for each digit
    where d(x) + d(y) >= m.  The lower digits are taken at each operand's
    own shape (:func:`_radix_digits`) and each carry is subtracted as an
    m*s-or-0 array.  After them the sum is below 2n, so the leading digit
    (the last, m*s = n) is settled without a compare: n is subtracted and
    added back where the sign bit shows the sum was below n.  With two or
    more digits and n < 2^30 all of it runs in int32, whose division and
    passes are the cheaper, and only the result is widened; a one-digit Z/n
    has no division, was slower with an int32 sum and stays int64."""
    dtype = np.int32 if len(digits) > 1 and n < 1 << 30 else np.int64
    out = np.add(a, b, dtype=dtype)
    if len(digits) > 1:
        a = np.asarray(a, dtype=dtype)
        b = np.asarray(b, dtype=dtype)
        moduli = [m for m, _ in digits]
        for (m, s), da, db in zip(digits[:-1], _radix_digits(a, moduli), _radix_digits(b, moduli)):
            out -= np.multiply(da >= m - db, m * s, dtype=dtype)
    out -= n
    wrap = out >> (8 * out.itemsize - 1)  # -1 where the sum was below n
    wrap &= n
    out += wrap
    return out.astype(np.int64, copy=False)


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
        kernel folds it pairwise.  The axiom checks
        (:func:`verify_group_axioms`, :func:`_require_associative`) keep
        pairwise products, since they test associativity itself.
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


class CyclicGroup(FiniteGroup):
    """Z/n: index i is the residue i, and the product is addition mod n."""

    def __init__(self, n: int) -> None:
        super().__init__(n, f"Z/{n}")
        self.cyclic_moduli = (n,)
        self._digits = _cyclic_digits(self.cyclic_moduli)
        self.is_abelian = True
        # i to n - i and 0 to 0, in int32 without temporaries
        self.inverse_table = np.arange(n, 0, -1, dtype=np.int32)
        self.inverse_table[:1] = 0

    def mul(self, i: int, j: int) -> int:
        return (i + j) % self.order

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _cyclic_mul(self._digits, self.order, a, b)


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


class PointImageGroup(FiniteGroup):
    """A group acting faithfully on ``width`` points, each element stored as
    its images of every point (one byte each up to 256 points); subclasses
    build the images in their own element order and the labels.

    Composition convention: (f*g)(x) = f(g(x)), one gather from f's images
    at g's image of x.  An element is found by its images of a greedy base
    (Seress, *Permutation Group Algorithms*, ch. 4) in dense tables, with no
    hashing (:mod:`grplab._baseindex`).  The first table reads the images
    of the first ``_depth`` base points as one base-width number; every
    later table reads slot node*width + (image of its base point).  Each
    table holds the next node, numbered in order and stored times width so
    that the next level only adds, and the last the element index.  A slot
    that no element reaches holds the level's dead node, which has an
    all-dead row of its own, or -1 at the last level, which raises
    NotAGroup.  The tables, the slots and ``_width`` are of the platform
    index type, so no ``take`` converts its index.  The kernel, the scalar
    ``mul`` (over memoryviews) and the inverse table all walk these tables
    (:meth:`_lookup`).
    """

    def __init__(self, images: np.ndarray, spec_text: str) -> None:
        from ._baseindex import base_index, greedy_base

        n, width = images.shape
        super().__init__(n, spec_text)
        self.images = images
        self.base = greedy_base(images)
        self._width = np.intp(width)
        # column i holds every element's image of b_i
        self._columns = np.ascontiguousarray(images[:, self.base].T)
        self._depth, self._tables = base_index(self._columns, width)
        # zero-copy views for the scalar mul, whose items read as Python ints
        first, *lead, last = [int(b) for b in self.base[:self._depth]]
        tables = [memoryview(t) for t in self._tables]
        levels = tuple(zip(tables[1:], self.base[self._depth:]))
        self._views = (memoryview(images.ravel()), width, first, lead, last, tables[0], levels)
        # the inverse of g sends b to the x with g(x) = b; found in row blocks
        # of at most PRODUCT_BLOCK images, so no (n, width) temporary is built
        step = max(1, PRODUCT_BLOCK // width)
        blocks = (images[lo:lo + step] for lo in range(0, n, step))
        self.inverse_table = np.concatenate(
            [self._lookup((block == b).argmax(axis=1) for b in self.base) for block in blocks]
        ).astype(np.int32)

    def _lookup(self, base_images) -> np.ndarray:
        """The element with each tuple of base images, ``base_images`` giving
        the images of b_0, b_1, ... one array at a time; raises NotAGroup
        where no element has them."""
        images = iter(base_images)
        width = self._width
        slot = np.multiply(next(images), width, dtype=np.intp)
        for _, image in zip(range(self._depth - 2), images):
            slot += image
            slot *= width
        for table, image in zip(self._tables, images):
            slot += image
            # every slot is in range; read in place, which a bounds-checked
            # take would do through a copy
            slot = table.take(slot, out=slot if slot.ndim else None, mode="clip")
        if slot.size and slot.min() < 0:
            raise NotAGroup("product fell outside the element set")
        return slot

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._mul_word((a, b))

    def _mul_word(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        # each factor is widened to intp once; the word's image of b_i is
        # f_1(f_2(...f_k(b_i))), composed right to left, then looked up once
        *outer, last = [np.asarray(f, dtype=np.intp) for f in factors]
        images = self.images
        flat = images.ravel()
        steps = []
        composed = [last]
        for f in reversed(outer):
            shape = np.broadcast(*composed).shape
            if f.ndim == len(shape) == 2 and f.shape[1] == 1 == shape[0]:
                # f varies along rows and the images so far along columns:
                # f's image rows are gathered once and read at those images
                steps.append((images[f[:, 0]], None))
            else:
                steps.append((None, f * self._width))
            composed.append(f)

        def base_images(column):
            image = column[last]
            for rows, offset in steps:
                if rows is None:
                    image = flat.take(offset + image)
                else:
                    image = rows.take(image[0], axis=1)
            return image

        return self._lookup(base_images(column) for column in self._columns)

    def mul(self, i: int, j: int) -> int:
        # the kernel's walk, one product in Python
        images, w, point, lead, last, first, levels = self._views
        row, col = i * w, j * w
        slot = images[row + images[col + point]] * w
        for point in lead:
            slot = (slot + images[row + images[col + point]]) * w
        slot = first[slot + images[row + images[col + last]]]
        for table, point in levels:
            slot = table[slot + images[row + images[col + point]]]
        if slot < 0:
            raise NotAGroup("product fell outside the element set")
        return slot


class PSL2Group(PointImageGroup):
    """PSL2(q): unimodular 2x2 matrices over GF(q) modulo +-identity.

    Matrices are canonicalized to the lexicographically smaller of M and -M
    on the flattened entry tuple (a, b, c, d); index 0 is the identity and
    the other elements follow in key order.

    Products are taken on the action x -> (ax + b)/(cx + d) on the q + 1
    points of the projective line over GF(q): points 0..q-1 are the field
    elements and point q is infinity.  PSL2(q) acts faithfully there; each
    element keeps the images of all q + 1 points, one byte each (n(q+1)
    bytes, 14.4 MB at q = 73).  PGL2(q) is sharply 3-transitive, so the base
    is at most three points and the index about (q+1)^3 entries (3.2 MB at
    q = 73).
    """

    def __init__(self, q: int) -> None:
        field = PrimePowerField(q)
        order = q * (q * q - 1) // gcd(2, q - 1)
        self.q = q
        self.field = field

        f_mul, f_add, f_neg, f_inv = field.mul_table, field.add_table, field.neg_table, field.inv_table
        # SL2(q) in closed form, one matrix per code (a*q + b)*q + x >= q:
        # c = x and d = a^-1 (1 + bc) when a != 0, else c = -b^-1 and d = x
        code = np.arange(q, q**3, dtype=np.int64)
        a, b, x = code // (q * q), code // q % q, code % q
        top = a != 0
        c = np.where(top, x, f_neg[f_inv[b]])
        d = np.where(top, f_mul[f_inv[a], f_add[1, f_mul[b, x]]], x)

        keys = self._encode(a, b, c, d)
        if field.p != 2:
            keys = np.minimum(keys, self._encode(f_neg[a], f_neg[b], f_neg[c], f_neg[d]))
        identity_key = self._encode(1, 0, 0, 1)
        keys[keys == identity_key] = -1  # the identity sorts first
        classes = _distinct(keys)
        if len(classes) != order:
            raise NotAGroup(f"PSL2({q}) canonicalization found {len(classes)} classes")
        classes[0] = identity_key
        a, b, c, d = ((classes // q**e % q).astype(np.int32) for e in (3, 2, 1, 0))
        self._mats = (a, b, c, d)

        # div[u*q + v] = u/v, and infinity where v = 0; the image of a field
        # point x is div at (ax + b)*q + cx + d, and that of infinity div at a*q + c
        div = f_mul[:, f_inv].astype(np.min_scalar_type(q))
        div[:, 0] = q
        div = div.ravel()
        # line[u*q + v, x] = ux + v: the rows (a, b) and (c, d) at every field point
        line = f_add[f_mul, np.arange(q)[:, None, None]].transpose(1, 0, 2).reshape(q * q, q)
        line = line.astype(np.min_scalar_type(q * q))
        rows = (a.astype(np.int64) * q + b, c.astype(np.int64) * q + d)
        # one byte per image for q <= 255
        images = np.empty((order, q + 1), dtype=div.dtype)
        step = max(1, PRODUCT_BLOCK // q)
        for lo in range(0, order, step):
            frac = line[rows[0][lo:lo + step]] * q
            frac += line[rows[1][lo:lo + step]]
            images[lo:lo + step, :q] = div[frac]
        images[:, q] = div[a * q + c]
        super().__init__(images, f"PSL2({q})")
        self.is_abelian = order <= 2

    def _encode(self, a, b, c, d) -> np.ndarray:
        q = self.q
        return ((np.asarray(a, dtype=np.int64) * q + b) * q + c) * q + d

    def element_label(self, i: int) -> str:
        a, b, c, d = (int(v[i]) for v in self._mats)
        return f"[[{a},{b}],[{c},{d}]]"


class PermutationGroup(PointImageGroup):
    """Closure of permutation generators under composition.

    A permutation's key reads its images as base-degree digits, first point
    most significant.  The closure grows one breadth-first layer of keys at
    a time, and the elements are indexed in key order, so the identity, the
    least key, is index 0.
    """

    def __init__(self, generators: Sequence[Tuple[Tuple[int, ...], ...]], spec_text: str, order_cap: int) -> None:
        if not generators:
            raise MalformedSpec("permutation group needs at least one generator")
        degree = max(max(max(c) for c in cycles) for cycles in generators)
        # 15 is the largest d with d**d < 2**62, so every key fits in int64
        if degree > 15:
            raise OrderCapExceeded(f"permutation degree {degree} too large to index")
        self.degree = degree
        self._key_weights = degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
        gens = np.array([self._perm_from_cycles(cycles, degree) for cycles in generators], dtype=np.int64)

        layer = self._keys_of(np.arange(degree, dtype=np.int64)[None, :])
        seen = set(layer.tolist())
        while len(layer):
            images = self._images_of(layer)
            found: List[int] = []
            for g in gens:
                new = [k for k in _distinct(self._keys_of(images[:, g])).tolist() if k not in seen]
                seen.update(new)
                found += new
                if len(seen) > order_cap:
                    raise OrderCapExceeded(f"permutation closure exceeded cap {order_cap}")
            layer = np.array(found, dtype=np.int64)

        keys = np.sort(np.fromiter(seen, dtype=np.int64, count=len(seen)))
        super().__init__(self._images_of(keys).astype(np.uint8), spec_text)
        products = gens[:, gens]  # products[i, j] is gens[i] * gens[j]
        self.is_abelian = bool(np.array_equal(products, products.swapaxes(0, 1)))

    @staticmethod
    def _perm_from_cycles(cycles: Tuple[Tuple[int, ...], ...], degree: int) -> Tuple[int, ...]:
        images = list(range(degree))
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
        return tuple(images)

    def _keys_of(self, perms: np.ndarray) -> np.ndarray:
        return perms @ self._key_weights

    def _images_of(self, keys: np.ndarray) -> np.ndarray:
        return keys[:, None] // self._key_weights % self.degree

    def element_label(self, i: int) -> str:
        images = self.images[i]
        covered = [False] * self.degree
        cycles = []
        for start in range(self.degree):
            if covered[start] or images[start] == start:
                covered[start] = True
                continue
            cyc = [start]
            covered[start] = True
            nxt = int(images[start])
            while nxt != start:
                cyc.append(nxt)
                covered[nxt] = True
                nxt = int(images[nxt])
            cycles.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
        return "".join(cycles) if cycles else "()"


class GeneralDirectProductGroup(FiniteGroup):
    """Direct product of arbitrary component groups in mixed-radix index
    encoding (last factor fastest).  When every component is a cyclic
    product, ``cyclic_moduli`` lists all their moduli and both products add
    digit by digit over those moduli (:func:`_cyclic_mul`); otherwise they go
    factor by factor through each component's own ``mul`` and kernel, never
    through a component's table."""

    def __init__(self, components: Sequence[FiniteGroup], spec_text: str) -> None:
        super().__init__(prod(g.order for g in components), spec_text)
        self.components = list(components)
        # a factor's stride is the order of the factors after it
        self._strides = tuple(prod(g.order for g in self.components[k + 1:]) for k in range(len(self.components)))
        self.is_abelian = all(g.is_abelian for g in self.components)
        self._digits: Optional[Tuple[Tuple[int, int], ...]] = None
        if all(g.cyclic_moduli is not None for g in self.components):
            # strides over the flattened moduli: a nested product's components
            # span several digits, so these differ from ``_strides``
            self.cyclic_moduli = tuple(m for g in self.components for m in g.cyclic_moduli)
            self._digits = _cyclic_digits(self.cyclic_moduli)

        # the inverse of (x_1, ..., x_k) is (x_1^-1, ..., x_k^-1): the outer
        # sum of each factor's int32 table times its stride, last factor fastest
        inverse = np.zeros((), dtype=np.int32)
        for g, s in zip(self.components, self._strides):
            inverse = np.add.outer(inverse, g.inverse_table * s)
        self.inverse_table = inverse.reshape(-1)

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._digits is not None:
            return _cyclic_mul(self._digits, self.order, a, b)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        # the last factor is the fastest digit
        comps = self.components[::-1]
        orders = [g.order for g in comps]
        for g, s, da, db in zip(comps, self._strides[::-1], _radix_digits(a, orders), _radix_digits(b, orders)):
            out += g._mul_kernel(da, db) * s
        return out

    def mul(self, i: int, j: int) -> int:
        if self._digits is not None:
            out = i + j
            for m, s in self._digits:
                if i // s % m + j // s % m >= m:
                    out -= m * s
            return out
        out = 0
        for g, s in zip(self.components, self._strides):
            out += g.mul((i // s) % g.order, (j // s) % g.order) * s
        return out

    def element_label(self, i: int) -> str:
        parts = [
            g.element_label((i // s) % g.order) for g, s in zip(self.components, self._strides)
        ]
        return "(" + ",".join(parts) + ")"


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
    if isinstance(spec, Cyclic):
        _check_cap(spec.n, order_cap)
        return CyclicGroup(spec.n)
    if isinstance(spec, DirectProduct):
        if not spec.factors:
            raise MalformedSpec("direct product needs at least one factor")
        if all(isinstance(f, Cyclic) for f in spec.factors):
            # the whole order is known before any factor is built
            _check_cap(prod(f.n for f in spec.factors), order_cap)  # type: ignore[union-attr]
        comps = [_build(f, order_cap) for f in spec.factors]
        _check_cap(prod(g.order for g in comps), order_cap)
        return GeneralDirectProductGroup(comps, str(spec))
    if isinstance(spec, PSL2):
        # the cap comes before factoring q, whose trial division is slow;
        # q < 2 is no field size, which the field itself reports
        q = spec.q
        if q >= 2:
            _check_cap(q * (q * q - 1) // gcd(2, q - 1), order_cap)
        return PSL2Group(q)  # raises NotPrimePower
    if isinstance(spec, Permutation):
        return PermutationGroup(spec.generators, str(spec), order_cap)
    if isinstance(spec, TableSource):
        return _build_table_group(spec.path, order_cap)
    raise MalformedSpec(f"unknown spec {spec!r}")


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapExceeded(f"group order {order} exceeds cap {cap}")
    if order < 1:
        raise MalformedSpec("group order must be positive")


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
