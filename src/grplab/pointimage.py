"""Point-image groups: PSL2(q) and permutation groups share one kernel.

An element is its images of the points it acts on (PSL2(q) on the q + 1
points of the projective line), a product's image of x is f(g(x)), and the
product is found by its images of a greedy base of the action in dense
tables of the platform index type (:mod:`grplab._baseindex`): one over the
leading base points (PSL2's whole base), then one a base level.  Each
operand is widened once.  When the left factor varies along rows and the
right along columns (every pair scan), each left row's images are gathered
once and read at the right factor's base images; a word a*b*c... composes
its images right to left and is looked up once.  Scalar ``mul`` walks the
same tables over zero-copy memoryviews of the kernel's own arrays.

Construction works on whole arrays: PSL2(q) lists SL2(q) in closed form
and takes each element's point images from the field tables
(:mod:`grplab.gf`), and a permutation group closes its generators one
breadth-first layer of keys at a time.  Row blocks are sized by
``groups.PRODUCT_BLOCK``, read at call time.

:func:`grplab.groups.build_group` imports this module, the only importer of
``gf`` and ``_baseindex``, for the first PSL2 or permutation group it builds.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple

import numpy as np

from . import groups
from ._baseindex import base_index, greedy_base
from .errors import MalformedSpec, NotAGroup, OrderCapExceeded
from .gf import PrimePowerField
from .groups import FiniteGroup, _distinct


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
        step = max(1, groups.PRODUCT_BLOCK // width)
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
        step = max(1, groups.PRODUCT_BLOCK // q)
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
