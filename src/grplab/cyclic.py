"""Z/n and direct products: every cyclic product adds digit by digit.

A direct product (``Z/a x Z/b`` included) indexes its elements in mixed
radix, last factor fastest.  Z/n and every product of cyclic groups, nested
ones included, add digit by digit with carries dropped
(:func:`_cyclic_mul`): x + y, less m*s for each digit of modulus m and
stride s whose two summands reach m, in a few division-light passes (int32
below order 2^30).  Other direct products multiply factor by factor through
each factor's kernel.  A direct product's inverse table is the outer sum of
its factors' tables, each times its stride.

:func:`grplab.groups.build_group` imports this module for the first Z/n or
direct product it builds.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup


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
