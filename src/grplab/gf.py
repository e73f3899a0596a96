"""Small finite fields GF(p^k) as dense lookup tables.

Field elements are indexed 0..q-1; index ``e`` encodes the polynomial
``sum_i c_i x^i`` with base-p digits ``c_i`` of ``e`` (c_0 least
significant).  The product table is built in one pass: every pair of
digit polynomials is multiplied at once, and the products are reduced
modulo the lexicographically least monic irreducible of degree k, the
least monic polynomial that is no product of two elements.  So the same
field size always yields the same arithmetic.  The scalar polynomial
helpers below are the independent oracle of the tests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .errors import NotPrimePower


def factor_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, k) with q = p**k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field size must be >= 2, got {q}")
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1:
            return p, k
        raise NotPrimePower(f"{q} is not a prime power")
    return q, 1


def _poly_trim(c: Tuple[int, ...]) -> Tuple[int, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_mul_mod(a: Tuple[int, ...], b: Tuple[int, ...], modulus: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    """(a*b) mod modulus over F_p; modulus is monic of degree k."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        coef = prod[d]
        if coef:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - coef * modulus[j]) % p
    return _poly_trim(tuple(prod))


def _int_to_poly(e: int, p: int) -> Tuple[int, ...]:
    digits = []
    while e:
        e, r = divmod(e, p)
        digits.append(r)
    return tuple(digits)


def _poly_to_int(c: Tuple[int, ...], p: int) -> int:
    v = 0
    for d in reversed(c):
        v = v * p + d
    return v


class PrimePowerField:
    """Dense-table arithmetic for GF(q) with q = p**k, q small."""

    def __init__(self, q: int) -> None:
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k

        weights = p ** np.arange(k, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        # componentwise addition/negation of base-p digit vectors
        self.add_table = ((digits[:, None] + digits[None, :]) % p @ weights).astype(np.int32)
        self.neg_table = (-digits % p @ weights).astype(np.int32)

        # coefficients of every product of two digit polynomials, degrees
        # 0..2k-2 (the last column stays 0, so k = 1 needs no special case)
        full = np.zeros((q, q, 2 * k), dtype=np.int64)
        for i in range(k):
            full[:, :, i:i + k] += digits[:, None, i, None] * digits
        full %= p
        # the modulus x^k + tail is the least irreducible, tails read by
        # increasing index (lexicographic on coefficients from degree k-1
        # down); a monic f of degree k is reducible exactly when it is the
        # product of two elements, i.e. when F_p[x]/(f) has zero divisors
        monic = (full[:, :, k] == 1) & ~full[:, :, k + 1:].any(axis=2)
        reducible = np.zeros(q, dtype=bool)
        reducible[full[monic][:, :k] @ weights] = True
        tail = digits[np.argmin(reducible)]
        self.modulus: Optional[Tuple[int, ...]] = tuple(tail.tolist()) + (1,) if k > 1 else None
        for top in range(2 * k - 2, k - 1, -1):
            # x^top = -tail * x^(top-k) modulo the modulus
            full[:, :, top - k:top] = (full[:, :, top - k:top] - full[:, :, top, None] * tail) % p
        self.mul_table = (full[:, :, :k] @ weights).astype(np.int32)
        # row 0 has no 1 and argmax gives 0 there, as 0 has no inverse
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.int32)
        self.one = 1
        self.zero = 0

    def add(self, a, b):
        return self.add_table[a, b]

    def sub(self, a, b):
        return self.add_table[a, self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a, b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        return self.inv_table[a]

    def elements(self) -> List[int]:
        return list(range(self.q))
