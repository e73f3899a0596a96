"""Small finite fields GF(p^k) as dense lookup tables.

Field elements are indexed 0..q-1; index ``e`` encodes the polynomial
``sum_i c_i x^i`` with base-p digits ``c_i`` of ``e`` (c_0 least
significant).  The product table is built a block of rows at a time:
each row's digit polynomial is multiplied by every element's at once, and
the products are reduced modulo the lexicographically least monic
irreducible of degree k, the least monic polynomial that is no product of
two elements.  So the same field size always yields the same arithmetic,
and the build holds little beyond the tables themselves (GF(1024): 32 MB).
"""

from __future__ import annotations

from typing import Optional, Tuple

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


class PrimePowerField:
    """Dense-table arithmetic for GF(q) with q = p**k, q small."""

    def __init__(self, q: int) -> None:
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k

        weights = p ** np.arange(k, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64) // weights[:, None] % p  # digits[i] is digit i of each element
        self.neg_table = (weights @ (-digits % p)).astype(np.int32)
        # the tables are built in blocks of rows, at most 2^20 coefficients each
        rows = max(1, (1 << 20) // (2 * k * q))
        blocks = [slice(lo, lo + rows) for lo in range(0, q, rows)]

        def products(block: slice) -> np.ndarray:
            """Coefficients mod p of the products of the digit polynomials of
            rows ``block`` with every element, degree first: degrees 0..2k-2
            (the last one stays 0, so k = 1 needs no special case)."""
            left = digits[:, block, None]
            full = np.zeros((2 * k, left.shape[1], q), dtype=np.int64)
            for i in range(k):
                full[i:i + k] += left[i] * digits[:, None, :]
            return full % p

        # the modulus x^k + tail is the least irreducible, tails read by
        # increasing index (lexicographic on coefficients from degree k-1
        # down); a monic f of degree k is reducible exactly when it is the
        # product of two elements, i.e. when F_p[x]/(f) has zero divisors
        reducible = np.zeros(q, dtype=bool)
        for block in blocks:
            full = products(block)
            monic = (full[k] == 1) & ~full[k + 1:].any(axis=0)
            reducible[weights @ full[:k, monic]] = True
        tail = digits[:, np.argmin(reducible)]
        self.modulus: Optional[Tuple[int, ...]] = tuple(tail.tolist()) + (1,) if k > 1 else None

        self.add_table = np.empty((q, q), dtype=np.int32)
        self.mul_table = np.empty((q, q), dtype=np.int32)
        for block in blocks:
            # componentwise addition of base-p digit vectors
            self.add_table[block] = np.tensordot(weights, (digits[:, block, None] + digits[:, None, :]) % p, 1)
            full = products(block)
            for top in range(2 * k - 2, k - 1, -1):
                # x^top = -tail * x^(top-k) modulo the modulus; the lower
                # coefficients are reduced mod p once, at the end
                full[top - k:top] -= full[top] % p * tail[:, None, None]
            self.mul_table[block] = np.tensordot(weights, full[:k] % p, 1)
        # row 0 has no 1 and argmax gives 0 there, as 0 has no inverse
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.int32)
