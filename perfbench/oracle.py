"""Independent re-implementations used to check grplab's outputs.

Nothing here imports grplab.  The benchmark recomputes set cardinalities,
random colorings and group products from first principles, in grplab's
documented element indexing, so a wrong count or witness cannot vouch for
itself:

* SplitMix64 (the stream and ``derive`` rule from ``grplab.rng``'s docstring)
  vectorized with numpy, for ``random:density,seed`` sets and
  ``random:k,seed`` colorings;
* groups in grplab's indexing (identity at 0): cyclic products in
  mixed radix, PSL2(p) for prime p with elements ordered by canonical matrix
  key, and permutation closures ordered by image key;
* the dihedral Cayley table the benchmark writes as a ``table:`` CSV.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, *path: int) -> int:
    h = mix64(seed)
    for part in path:
        h = mix64(h ^ ((part + GOLDEN) & MASK64))
    return h


def u64_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` words of the SplitMix64 stream for ``seed``."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + steps * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_mask(order: int, density: float, seed: int) -> np.ndarray:
    """Membership mask of the set spec ``random:density,seed``."""
    u = u64_stream(seed, order)
    return (u >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)) < density


def random_coloring(order: int, k: int, seed: int) -> np.ndarray:
    """Colors of the coloring spec ``random:k,seed`` (rejection-sampled randrange)."""
    limit = ((1 << 64) // k) * k
    words = u64_stream(derive(seed, 0xC0105), order)
    if limit <= MASK64 and bool(np.any(words >= np.uint64(limit))):
        state = derive(seed, 0xC0105)
        colors = []
        while len(colors) < order:
            state = (state + GOLDEN) & MASK64
            u = mix64(state)
            if u < limit:
                colors.append(u % k)
        return np.array(colors, dtype=np.int64)
    return (words % np.uint64(k)).astype(np.int64)


class Group:
    """A finite group in grplab's indexing, with vectorized multiplication."""

    def __init__(self, order: int, mul, inverse: np.ndarray) -> None:
        self.order = order
        self._mul = mul
        self._inverse = inverse

    def mul(self, a, b) -> np.ndarray:
        return self._mul(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def inverse(self) -> np.ndarray:
        return self._inverse


def cyclic_product(moduli: Sequence[int]) -> Group:
    moduli = [int(m) for m in moduli]
    strides = [int(np.prod(moduli[i + 1 :], dtype=np.int64)) for i in range(len(moduli))]
    order = int(np.prod(moduli, dtype=np.int64))

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for m, s in zip(moduli, strides):
            out += (((a // s) % m + (b // s) % m) % m) * s
        return out

    idx = np.arange(order, dtype=np.int64)
    inverse = sum(((-(idx // s)) % m) * s for m, s in zip(moduli, strides))
    return Group(order, mul, inverse)


def psl2(p: int) -> Group:
    """PSL2(p), p prime: matrices mod +-1, ordered by the smaller of the two
    flattened (a, b, c, d) keys, identity first."""
    v = np.arange(p, dtype=np.int64)
    a, b, c, d = (x.ravel() for x in np.meshgrid(v, v, v, v, indexing="ij"))
    keep = (a * d - b * c) % p == 1
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]

    def canon(a, b, c, d):
        key = ((a * p + b) * p + c) * p + d
        neg = (((-a % p) * p + (-b % p)) * p + (-c % p)) * p + (-d % p)
        return np.minimum(key, neg)

    keys = np.unique(canon(a, b, c, d))
    ident = p * p * p + 1
    by_index = np.concatenate(([ident], keys[keys != ident]))
    sorter = np.argsort(by_index)
    sorted_keys = by_index[sorter]
    ma, mb, mc, md = by_index // p**3, by_index // p**2 % p, by_index // p % p, by_index % p

    def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ra = (ma[x] * ma[y] + mb[x] * mc[y]) % p
        rb = (ma[x] * mb[y] + mb[x] * md[y]) % p
        rc = (mc[x] * ma[y] + md[x] * mc[y]) % p
        rd = (mc[x] * mb[y] + md[x] * md[y]) % p
        return sorter[np.searchsorted(sorted_keys, canon(ra, rb, rc, rd))]

    inverse = sorter[np.searchsorted(sorted_keys, canon(md, -mb % p, -mc % p, ma))]
    return Group(len(by_index), mul, inverse)


def permutations(generators: Sequence[Sequence[Sequence[int]]]) -> Group:
    """Closure of cycle-notation generators (1-based points); (f*g)(x) = f(g(x))."""
    degree = max(max(cycle) for gen in generators for cycle in gen)
    gens = []
    for gen in generators:
        img = list(range(degree))
        for cycle in gen:
            for i, pt in enumerate(cycle):
                img[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
        gens.append(tuple(img))
    ident = tuple(range(degree))
    seen = {ident}
    todo = [ident]
    while todo:
        f = todo.pop()
        for g in gens:
            h = tuple(f[g[x]] for x in range(degree))
            if h not in seen:
                seen.add(h)
                todo.append(h)
    weights = degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    rest = np.array(sorted(e for e in seen if e != ident), dtype=np.int64).reshape(-1, degree)
    images = np.concatenate((np.array([ident], dtype=np.int64), rest))
    keys = images @ weights
    sorter = np.argsort(keys)
    sorted_keys = keys[sorter]

    def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = np.broadcast_arrays(x, y)
        composed = np.take_along_axis(images[x.ravel()], images[y.ravel()], axis=1)
        return sorter[np.searchsorted(sorted_keys, composed @ weights)].reshape(x.shape)

    inverse = sorter[np.searchsorted(sorted_keys, np.argsort(images, axis=1) @ weights)]
    return Group(len(images), mul, inverse)


def dihedral_table(m: int, seed: int) -> np.ndarray:
    """Cayley table of the dihedral group of order 2m with the identity at
    index 0 and the other elements placed by a seeded shuffle."""
    n = 2 * m
    rot = np.arange(n) % m  # element e < m is r^e, element m + e is r^e s
    ref = np.arange(n) // m
    # (r^i s^e)(r^j s^f) = r^(i + (-1)^e j) s^(e xor f)
    i, e = rot[:, None], ref[:, None]
    j, f = rot[None, :], ref[None, :]
    prod_rot = (i + np.where(e == 1, -j, j)) % m
    natural = prod_rot + m * (e ^ f)
    order = np.argsort(u64_stream(seed, n - 1), kind="stable") + 1
    label = np.empty(n, dtype=np.int64)
    label[0] = 0
    label[order] = np.arange(1, n)
    table = np.empty((n, n), dtype=np.int64)
    table[label[:, None], label[None, :]] = label[natural]
    return table


def increasing_products(group: Group, elements: Sequence[int]) -> Dict[str, int]:
    """a_F for every nonempty F, keyed like grplab's witness JSON ("1,3")."""
    n = len(elements)
    out: Dict[str, int] = {}
    for bits in range(1, 1 << n):
        f = [i + 1 for i in range(n) if (bits >> i) & 1]
        prod = 0
        for i in f:
            prod = int(group.mul(prod, elements[i - 1]))
        out[",".join(map(str, f))] = prod
    return out


def schur_count(group: Group, mask: np.ndarray) -> int:
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return 0
    return int(mask[group.mul(idx[:, None], idx[None, :])].sum())


def sss_inv_sss(group: Group, inv: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    s = np.asarray(subset, dtype=np.int64)
    pair = np.unique(group.mul(s[:, None], inv[s][None, :]))
    return np.unique(group.mul(pair[:, None], s[None, :]))


def products_meet(group: Group, left: np.ndarray, right: np.ndarray, target: np.ndarray) -> bool:
    return bool(np.isin(group.mul(left[:, None], right[None, :]), target).any())


def parse_perm(spec: str) -> List[List[List[int]]]:
    """Cycle generators of a ``perm:(1 2 3);(1 2)`` spec."""
    gens = []
    for chunk in spec[len("perm:"):].split(";"):
        cycles = []
        for part in chunk.strip().strip("()").split(")("):
            cycles.append([int(x) for x in part.split()])
        gens.append(cycles)
    return gens


def build(spec: str) -> Group:
    """Oracle group for the ``PSL2(p)``, ``perm:`` and cyclic specs the benchmark uses."""
    if spec.startswith("PSL2("):
        return psl2(int(spec[5:-1]))
    if spec.startswith("perm:"):
        return permutations(parse_perm(spec))
    return cyclic_product([int(part.strip()[2:]) for part in spec.split(" x ")])


def ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


def rich_witness_ok(group: Group, subset: Sequence[int]) -> bool:
    """S*S misses S (the product-richness violation condition)."""
    s = np.asarray(subset, dtype=np.int64)
    return not bool(np.isin(group.mul(s[:, None], s[None, :]), s).any())


def regular_witness_ok(group: Group, inv: np.ndarray, subsets: Tuple[Sequence[int], ...]) -> bool:
    ta, tb, tc = (sss_inv_sss(group, inv, s) for s in subsets)
    return not products_meet(group, ta, tb, tc)
