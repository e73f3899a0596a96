"""Exact solution counting for group equations.

Every two-set product reads the product counts r(z) = #{(x, y) in L x R :
xy = z} of ``_product_counts``.  The xyz, power, fiber and Schur counts and
ap3 on abelian groups are r against weights (``_pair_count``); the mixing
count and the convolution identity of :mod:`grplab.tuples` add such counts
too, and product sets and the Schur and Hindman searches read r.  Three
engines cross-check: ``BruteForce`` loops over the pairs in Python,
``CayleyConvolution`` bincounts the products gathered through the group's
vectorized multiplication, and ``AbelianFFT`` convolves the two index
histograms over a cyclic product by a real-input FFT, each side a
``_Factor`` whose n-sized arrays live only until they are spent;
``_resolve_engine``, the one scan-or-convolve rule, picks by the planned
pairs.  The FFT result is rounded and kept only when an a-priori error
bound and the observed rounding residual stay well below 1/2, else exact
integer convolution runs instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainMismatch, EngineUnsupported, MalformedSpec, PointwiseIdentityFailed
from .groups import FiniteGroup, _pair_blocks
from .sets import GroupSubset, _require_same_group

ENGINE_BRUTE = "BruteForce"
ENGINE_CAYLEY = "CayleyConvolution"
ENGINE_FFT = "AbelianFFT"

_FFT_RESIDUAL_LIMIT = 0.25


class CountReport(NamedTuple):
    """Exact count of solutions plus the reference normalizer.

    ``ratio`` is count/normalizer as a float, or None (JSON null) when the
    normalizer is 0, as for an empty set; ``degenerate_count`` follows
    each operation's convention for trivial solutions (documented on the
    operation).  ``extras`` carries operation-specific diagnostics; its
    default is one shared empty dict, which no report changes.
    """

    equation: str
    count: int
    normalizer: Fraction
    degenerate_count: int
    engine: str
    extras: dict = {}

    @property
    def ratio(self) -> Optional[float]:
        if self.normalizer == 0:
            return None
        return self.count / float(self.normalizer)

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "count": self.count,
            "degenerate": self.degenerate_count,
            "normalizer_num": self.normalizer.numerator,
            "normalizer_den": self.normalizer.denominator,
            "ratio": self.ratio,
            "engine": self.engine,
            **self.extras,
        }


# ---------------------------------------------------------------------------
# xy = z


def count_xy_eq_z(
    a: GroupSubset, b: GroupSubset, c: GroupSubset, engine: str = "auto"
) -> CountReport:
    """|{(x, y, z) in A x B x C : x*y = z}|, normalized by |A||B||C|/|G|.

    The degenerate count is 1 when the identity triple (id, id, id) solves
    the equation, else 0.
    """
    g = _require_same_group(a, b, c)
    engine = _resolve_engine(g, engine, a.card * b.card)
    count = _pair_count(g, a.indices, b.indices, c.mask, engine)
    degenerate = int(a.contains(0) and b.contains(0) and c.contains(0))
    normalizer = Fraction(a.card * b.card * c.card, g.order)
    return CountReport("xyz", count, normalizer, degenerate, engine)


def _resolve_engine(g: FiniteGroup, engine: str, pairs: int) -> str:
    """The engine that ``engine`` names on ``g`` for a scan of ``pairs`` products:
    ``auto`` is the FFT on a cyclic product above max(8|G|, 2^16) pairs, else Cayley."""
    if engine == "auto":
        # a scan and one FFT over G cost the same near 6-12|G| pairs; under 2^16
        # pairs either takes well under a millisecond, so small groups keep the scan
        fft = g.cyclic_moduli is not None and pairs > max(8 * g.order, 1 << 16)
        engine = "fft" if fft else "cayley"
    if engine in ("brute", ENGINE_BRUTE):
        return ENGINE_BRUTE
    if engine in ("cayley", ENGINE_CAYLEY):
        return ENGINE_CAYLEY
    if engine in ("fft", ENGINE_FFT):
        if g.cyclic_moduli is None:
            raise EngineUnsupported(f"AbelianFFT needs a cyclic product group, not {g.spec_text}")
        return ENGINE_FFT
    raise EngineUnsupported(f"unknown engine {engine!r}")


def _pair_count(g: FiniteGroup, left: np.ndarray, right: np.ndarray, weights: np.ndarray, engine: str = "auto") -> int:
    """Sum of weights[x*y] over x in ``left`` and y in ``right``: the product
    counts of :func:`_product_counts` against ``weights``.  ``einsum`` casts
    a bool mask in small buffers, where ``np.dot`` would copy it whole to
    int64."""
    return int(np.einsum("i,i", _product_counts(g, left, right, engine), weights))


def _product_counts(g: FiniteGroup, left, right, engine: str = "auto") -> np.ndarray:
    """r[z] = #{(x, y) : x in ``left``, y in ``right``, x*y = z} as an int64
    array of length |G|, over index arrays with repeats allowed (or their
    ``_Factor``s, whose spectra are then kept for reuse), by ``engine``
    resolved for len(left) * len(right) pairs.  The same array or factor on
    both sides is one factor."""
    n = g.order
    x = _factor(g, left)
    y = x if right is left else _factor(g, right)
    engine = _resolve_engine(g, engine, len(x.indices) * len(y.indices))
    if engine == ENGINE_BRUTE:
        mul = g.mul
        products = [mul(i, j) for i in x.indices.tolist() for j in y.indices.tolist()]
        return np.bincount(np.asarray(products, dtype=np.int64), minlength=n)
    if engine == ENGINE_FFT:
        return cyclic_convolution(g, x, y)
    counts = np.zeros(n, dtype=np.int64)
    for block in _pair_blocks(g.mul_arrays, x.indices, y.indices):
        counts += np.bincount(block.ravel(), minlength=n)
        del block
    return counts


class _Factor:
    """One side of a product: an index array (repeats allowed, or None when
    only the histogram is known), its histogram f over G and, on a cyclic
    product, the rfftn spectrum of f.  f is kept only until the spectrum
    exists (its sum and max, all the error bound reads, stay) and is rebuilt
    from the indices or the mirror if the exact fallback runs.  A caller's
    factor keeps its spectrum, so a set in several products is transformed
    once; a ``once`` factor, made by ``_product_counts`` from an index
    array, hands its spectrum to its one product to overwrite."""

    __slots__ = ("g", "indices", "once", "_norms", "_hist", "_spectrum", "_mirror")

    def __init__(
        self,
        g: FiniteGroup,
        indices: Optional[np.ndarray] = None,
        hist: Optional[np.ndarray] = None,
        mirror: Optional["_Factor"] = None,
        once: bool = False,
    ) -> None:
        self.g = g
        self.indices = indices
        self.once = once
        self._norms: Optional[Tuple[int, int]] = None
        self._hist = hist
        self._spectrum: Optional[np.ndarray] = None
        self._mirror = mirror  # the factor this one inverts

    def hist(self) -> np.ndarray:
        if self._hist is not None:
            return self._hist
        if self._mirror is not None:
            h = self._mirror.hist()[self.g.inverse_table]
        else:
            h = np.bincount(self.indices, minlength=self.g.order)
        if self._spectrum is None:
            self._hist = h
        return h

    def norms(self) -> Tuple[int, int]:
        """(sum f, max f); a mirror's are its inverse's."""
        if self._norms is None:
            if self._mirror is not None:
                self._norms = self._mirror.norms()
            else:
                h = self.hist()
                self._norms = (int(h.sum()), int(h.max()))
        return self._norms

    def spend(self) -> Tuple[np.ndarray, bool]:
        """(s, conjugate) for one product: the spectrum is s, or its complex
        conjugate for a mirror, whose s is its base's and which keeps none of
        its own.  A ``once`` factor forgets s."""
        if self._mirror is not None:
            s, conjugate = self._mirror.spend()
            return s, not conjugate
        s = self._spectrum
        if s is None:
            self.norms()  # taken before the histogram goes
            f = self.hist().reshape(tuple(self.g.cyclic_moduli)).astype(np.float64)
            if self.indices is not None:
                self._hist = None
            s = np.fft.rfftn(f)
        self._spectrum = None if self.once else s
        return s, False

    def inverse(self) -> "_Factor":
        """The factor of the inverses: histogram f(x^-1), and for real f the
        spectrum of f(x^-1) is the complex conjugate of f's, pointwise, so
        also on the half-spectrum that rfftn keeps; no transform of its own."""
        indices = None if self.indices is None else self.g.inverse_table[self.indices].astype(np.int64)
        return _Factor(self.g, indices, mirror=self)


def _factor(g: FiniteGroup, side) -> _Factor:
    return side if isinstance(side, _Factor) else _Factor(g, side, once=True)


def _spectrum_product(x: _Factor, y: _Factor) -> np.ndarray:
    """x's spectrum times y's in one array, written over a ``once`` factor's
    spectrum where there is one; a ``once`` spectrum not written over is
    freed as this returns.  A mirror's conjugate is formed in the product's
    own array, so conj(s_A)·s_B holds no third spectrum."""
    sx, cx = x.spend()
    sy, cy = (sx, cx) if y is x else y.spend()
    if cx != cy:
        out = np.conjugate(sx if cx else sy)
        out *= sy if cx else sx
        return out
    out = np.multiply(sx, sy, out=sx if x.once else sy if y.once else None)
    return np.conjugate(out, out=out) if cx else out


def cyclic_convolution(g: FiniteGroup, fa, fb) -> np.ndarray:
    """Exact integer group convolution fa * fb over a cyclic product group,
    for nonnegative integer vectors fa and fb (the same vector on both sides
    is transformed once), or ``_Factor``s.

    Fast path: multidimensional real-input FFT (``rfftn``/``irfftn``, which
    keep only the nonnegative frequencies of the last axis), rounded,
    accepted only when the a-priori float error bound and the observed
    residual are both < 1/2.  Fallback: exact integer accumulation of
    weighted rolled arrays over the smaller support.

    Two one-use sides hold at most three n-sized arrays at once (4.6 MiB
    traced at Z/200000), a self-product two; the float result is freed
    before the int64 cast.
    """
    moduli = g.cyclic_moduli
    assert moduli is not None
    x = fa if isinstance(fa, _Factor) else _Factor(g, hist=fa, once=True)
    y = x if fb is fa else (fb if isinstance(fb, _Factor) else _Factor(g, hist=fb, once=True))
    shape = tuple(moduli)
    axes = tuple(range(len(shape)))
    n = g.order
    (sum_x, max_x), (sum_y, max_y) = x.norms(), y.norms()
    # no output entry exceeds sum(fa) * max(fb) or sum(fb) * max(fa)
    max_out = float(min(sum_x * max_y, sum_y * max_x))
    # conservative a-priori bound on FFT rounding error
    bound = 1e-15 * max(1.0, max_out) * n * max(1.0, math.log2(max(2, n)))
    if bound < 0.4:
        # ``s`` keeps an odd last axis whole; ``axes`` goes with it
        conv = np.fft.irfftn(_spectrum_product(x, y), s=shape, axes=axes)
        rounded = np.rint(conv)
        conv -= rounded
        residual = float(np.abs(conv, out=conv).max()) if conv.size else 0.0
        del conv
        if residual < _FFT_RESIDUAL_LIMIT:
            return rounded.astype(np.int64).reshape(-1)
        del rounded
    # exact fallback: accumulate the other side shifted by each support point
    # of the side with the smaller support, times that point's weight
    fa, fb = x.hist(), y.hist()
    small, other = (fa, fb) if np.count_nonzero(fa) <= np.count_nonzero(fb) else (fb, fa)
    out = np.zeros(shape, dtype=np.int64)
    oth = other.reshape(shape).astype(np.int64)
    support = np.nonzero(small.reshape(-1))[0]
    for idx in support:
        shifts = np.unravel_index(int(idx), shape)
        out += int(small[idx]) * np.roll(oth, shifts, axis=axes)
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# three-term progressions (a, ab, ab^2)


def count_ap3(a: GroupSubset, engine: str = "auto") -> CountReport:
    """Pairs (x, y) in G^2 with x, xy, xy^2 all in A; normalizer |A|^2.

    Pairs with y = identity are the degenerate ones.
    """
    g = a.group
    engine = _resolve_engine(g, engine, a.card * a.card)
    if engine == ENGINE_BRUTE:
        count, degenerate = _ap3_brute(g, a)
    elif g.is_abelian:
        # the progression is (x, m, z) in A^3 with x + z = 2m
        ai = a.indices
        count = _pair_count(g, ai, ai, np.bincount(g.pow_arrays(ai, 2), minlength=g.order), engine)
        degenerate = a.card
    else:
        count, degenerate = _ap3_fast(g, a)
    return CountReport("ap3", count, Fraction(a.card * a.card), degenerate, engine)


def _ap3_fast(g: FiniteGroup, a: GroupSubset) -> Tuple[int, int]:
    # reparametrize by (x, m=xy): y = x^-1 m, and x y^2 = m y = m x^-1 m,
    # one word a block
    ai = a.indices
    count = 0
    for last in _pair_blocks(lambda x_inv, m: g.mul_arrays(m, x_inv, m), g.inverse_table[ai], ai):
        count += int(np.count_nonzero(a.mask[last]))
        del last
    # y is the identity exactly when m = x, and then x, xy, xy^2 all lie in A
    return count, a.card


def _ap3_brute(g: FiniteGroup, a: GroupSubset) -> Tuple[int, int]:
    mul = g.mul
    mask = a.mask
    count = 0
    degenerate = 0
    for x in a.to_index_list():
        for y in range(g.order):
            m = mul(x, y)
            if mask[m] and mask[mul(m, y)]:
                count += 1
                if y == 0:
                    degenerate += 1
    return count, degenerate


# ---------------------------------------------------------------------------
# power equations x^n1 * y^n2 = z^n3


def count_power_equation(
    a: GroupSubset, n1: int, n2: int, n3: int, engine: str = "auto"
) -> CountReport:
    """Triples (x, y, z) in A^3 with x^n1 * y^n2 = z^n3; normalizer |A|^2.

    Degenerate solutions are those with x = y = z.  The report also notes
    whether A is free of nontrivial elements whose order divides one of the
    exponents (``extras["torsion_free"]``).
    """
    if min(n1, n2, n3) < 1:
        raise MalformedSpec("exponents must be >= 1")
    g = a.group
    engine = _resolve_engine(g, engine, a.card * a.card)
    ai = a.indices
    torsion_free = _torsion_free(g, ai, (n1, n2, n3))
    extras = {"torsion_free": torsion_free, "exponents": [n1, n2, n3]}
    p1, p2, p3 = (g.pow_arrays(ai, e) for e in (n1, n2, n3))
    count = _pair_count(g, p1, p2, np.bincount(p3, minlength=g.order), engine)
    diag = int(np.count_nonzero(g.mul_arrays(p1, p2) == p3))
    return CountReport("power", count, Fraction(a.card * a.card), diag, engine, extras)


def _torsion_free(g: FiniteGroup, indices: np.ndarray, exponents: Tuple[int, ...]) -> bool:
    """No nontrivial i in ``indices`` has order dividing an exponent, i.e.
    i^e is never the identity."""
    idx = indices[indices != 0]
    return not any(np.any(g.pow_arrays(idx, e) == 0) for e in exponents)


# ---------------------------------------------------------------------------
# fiber-function equations f1(a1) * f2(a2) = f3(a3)


class FiberFunction(NamedTuple):
    """A map from a subset A into the group with bounded fibers.

    ``mapping[t]`` is the image of the t-th element of ``domain`` in index
    order; every value may appear at most ``fiber_bound`` times.
    """

    domain: GroupSubset
    mapping: Tuple[int, ...]
    fiber_bound: int

    @classmethod
    def from_callable(cls, domain: GroupSubset, fn, fiber_bound: Optional[int] = None) -> "FiberFunction":
        values = tuple(int(fn(x)) for x in domain.to_index_list())
        return cls.from_values(domain, values, fiber_bound)

    @classmethod
    def from_values(
        cls, domain: GroupSubset, values: Sequence[int], fiber_bound: Optional[int] = None
    ) -> "FiberFunction":
        values = tuple(int(v) for v in values)
        if len(values) != domain.card:
            raise DomainMismatch("one value per domain element required")
        n = domain.group.order
        if values and (min(values) < 0 or max(values) >= n):
            raise DomainMismatch("fiber function value out of range")
        fibers: Dict[int, int] = {}
        for v in values:
            fibers[v] = fibers.get(v, 0) + 1
        actual = max(fibers.values(), default=0)
        if fiber_bound is None:
            fiber_bound = actual
        elif actual > fiber_bound:
            raise DomainMismatch(f"a fiber has size {actual} > bound {fiber_bound}")
        return cls(domain, values, fiber_bound)


def count_fiber_equation(
    f1: FiberFunction,
    f2: FiberFunction,
    f3: FiberFunction,
    *,
    min_identity_fraction: Union[Fraction, float] = 1,
) -> CountReport:
    """Triples (a1, a2, a3) in A^3 with f1(a1)*f2(a2) = f3(a3); normalizer |A|^2.

    The pointwise identity f1(a)*f2(a) = f3(a) must hold on at least
    ``min_identity_fraction`` of A; the count of elements where it holds is
    the degenerate (diagonal) count.
    """
    a = f1.domain
    if not (a == f2.domain and a == f3.domain):
        raise DomainMismatch("fiber functions must share one domain set")
    g = a.group
    v1 = np.asarray(f1.mapping, dtype=np.int64)
    v2 = np.asarray(f2.mapping, dtype=np.int64)
    v3 = np.asarray(f3.mapping, dtype=np.int64)
    diag = int(np.count_nonzero(g.mul_arrays(v1, v2) == v3))
    needed = Fraction(min_identity_fraction) * a.card
    if Fraction(diag) < needed:
        raise PointwiseIdentityFailed(
            f"identity holds on {diag}/{a.card} elements, below the required fraction"
        )

    engine = _resolve_engine(g, "auto", a.card * a.card)
    count = _pair_count(g, v1, v2, np.bincount(v3, minlength=g.order), engine)
    extras = {"fiber_bounds": [f1.fiber_bound, f2.fiber_bound, f3.fiber_bound]}
    return CountReport("fiber", count, Fraction(a.card * a.card), diag, engine, extras)
