from __future__ import annotations

import math
import tracemalloc
from typing import Tuple

import numpy as np
import pytest

from grplab.groups import build_group
from grplab.sets import GroupSubset

# spec strings for the standard test fleet, smallest first
FLEET_SPECS = [
    "Z/1",
    "Z/4",
    "Z/6",
    "Z/12",
    "Z/2 x Z/3",
    "Z/2 x Z/2 x Z/2",
    "perm:(1 2 3);(1 2)",          # S3
    "perm:(1 2 3 4);(1 3)",        # D4
    "perm:(1 2 3);(1 2)(3 4)",     # A4
    "perm:(1 2 3 4);(1 2)",        # S4
    "PSL2(5)",
]

_cache: dict = {}


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fleet_group(spec: str):
    if spec not in _cache:
        _cache[spec] = build_group(spec)
    return _cache[spec]


@pytest.fixture(params=FLEET_SPECS, ids=lambda s: s.replace(" ", ""))
def any_fleet_group(request):
    return fleet_group(request.param)


# groups where |A|^2 can and cannot cross the scan-or-convolve line
# max(8|G|, 2^16) of ``counting._resolve_engine``
RULE_GROUPS = ["Z/6 x Z/4", "Z/177", "Z/2000", "Z/20011", "Z/2 x Z/1000", "Z/400 x Z/500", "PSL2(5)"]


def pair_rule(g, pairs):
    """The engine ``auto`` must pick for a scan of ``pairs`` products on g."""
    if g.cyclic_moduli is not None and pairs > max(8 * g.order, 1 << 16):
        return "AbelianFFT"
    return "CayleyConvolution"


def rule_sets(spec, step, count=3):
    """``count`` seeded sets of one size: step 0 puts |A|^2 at or just below
    the line, step 1 just above it (both capped at |G|)."""
    g = fleet_group(spec)
    card = min(math.isqrt(max(8 * g.order, 1 << 16)) + step, g.order)
    rngs = (np.random.default_rng(seed) for seed in range(1, count + 1))
    return g, card, [GroupSubset.from_indices(g, rng.choice(g.order, card, replace=False)) for rng in rngs]


@pytest.fixture()
def s3():
    return fleet_group("perm:(1 2 3);(1 2)")


@pytest.fixture()
def s4():
    return fleet_group("perm:(1 2 3 4);(1 2)")


@pytest.fixture()
def psl2_5():
    return fleet_group("PSL2(5)")


def _dihedral_table(m):
    """D_m of order 2m, r^i s^e at index 2i + e: index 1 is the reflection s
    and index 2 the rotation r, the two generators Light's test picks."""
    i, e = np.divmod(np.arange(2 * m), 2)
    rot = (i[:, None] + np.where(e[:, None] == 1, -i[None, :], i[None, :])) % m
    return 2 * rot + (e[:, None] ^ e[None, :])


# scalar polynomial arithmetic over F_p, coefficients lowest degree first:
# the independent oracle of the field tables


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


def _gf_scalar_ops(field):
    """GF(q) add and mul on element indices from base-p digits and
    polynomial products modulo the field's modulus, not its tables."""
    p, k = field.p, field.k

    def digits(e):
        return _int_to_poly(e, p) + (0,) * k

    def add(x, y):
        return _poly_to_int(tuple((u + v) % p for u, v in zip(digits(x)[:k], digits(y)[:k])), p)

    def mul(x, y):
        if k == 1:
            return x * y % p
        return _poly_to_int(_poly_mul_mod(_int_to_poly(x, p), _int_to_poly(y, p), field.modulus, p), p)

    def neg(x):
        return _poly_to_int(tuple(-u % p for u in digits(x)[:k]), p)

    return add, mul, neg


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
