"""Checks on grplab report output, built on the independent oracles.

Each check receives the parsed JSON report and raises :class:`CheckFailed`
on any violated invariant: exact integer bounds and identities first, then
an exact recount or re-check by the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

import oracle


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def frac(value) -> Fraction:
    return Fraction(value["num"], value["den"])


def quasirandom(out: dict, order: int, class_count: int, qdeg: int, ab_order: int) -> None:
    degrees = out["degrees"]
    require(out["order"] == order, f"order {out['order']} != {order}")
    require(sum(d * d for d in degrees) == order, "sum of squared degrees != |G|")
    require(len(degrees) == out["class_count"] == class_count, "degree count != class count")
    require(degrees.count(1) == out["abelianization_order"] == ab_order, "degree-1 count != |G/[G,G]|")
    require(out["quasirandomness_degree"] == sorted(degrees)[1] == qdeg, "wrong quasirandomness degree")


def xyz(out: dict, group: oracle.Group, masks: Sequence[np.ndarray], engine: str, exact: int) -> None:
    a, b, c = (int(m.sum()) for m in masks)
    require(out["engine"] == engine, f"engine {out['engine']} != {engine}")
    require(Fraction(out["normalizer_num"], out["normalizer_den"]) == Fraction(a * b * c, group.order), "normalizer")
    require(0 <= out["count"] <= min(a * b, a * c, b * c), "count outside [0, min pairwise product]")
    require(out["degenerate"] == int(masks[0][0] and masks[1][0] and masks[2][0]), "degenerate flag")
    require(out["count"] == exact, f"count {out['count']} != oracle {exact}")


def xyz_exact(group: oracle.Group, masks: Sequence[np.ndarray]) -> int:
    """Pairs (x, y) in A x B with xy in C, by the oracle's multiplication."""
    ai, bi = np.nonzero(masks[0])[0], np.nonzero(masks[1])[0]
    total = 0
    for lo in range(0, len(ai), 256):
        total += int(masks[2][group.mul(ai[lo : lo + 256, None], bi[None, :])].sum())
    return total


def cyclic_convolution(moduli: Sequence[int], fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Exact (1_A * 1_B) over a cyclic product by float FFT, refusing a
    rounding residual that could hide an off-by-one."""
    shape = tuple(moduli)
    conv = np.fft.irfftn(
        np.fft.rfftn(fa.reshape(shape).astype(np.float64)) * np.fft.rfftn(fb.reshape(shape).astype(np.float64)),
        s=shape,
        axes=tuple(range(len(shape))),
    )
    rounded = np.rint(conv)
    require(float(np.abs(conv - rounded).max()) < 0.25, "oracle FFT residual too large")
    return rounded.astype(np.int64).reshape(-1)


def ap3(out: dict, group: oracle.Group, mask: np.ndarray) -> None:
    card = int(mask.sum())
    require(out["engine"] == "CayleyConvolution", "ap3 engine")
    require(Fraction(out["normalizer_num"], out["normalizer_den"]) == card * card, "ap3 normalizer != |A|^2")
    require(out["degenerate"] == card, "ap3 degenerate count != |A|")
    require(card <= out["count"] <= card * card, "ap3 count outside [|A|, |A|^2]")
    # pairs (x, m) in A^2 with y = x^-1 m and m y in A
    ai = np.nonzero(mask)[0]
    inv = group.inverse()
    total = 0
    for lo in range(0, len(ai), 256):
        ys = group.mul(inv[ai[lo : lo + 256]][:, None], ai[None, :])
        total += int(mask[group.mul(np.broadcast_to(ai[None, :], ys.shape), ys)].sum())
    require(out["count"] == total, f"ap3 count {out['count']} != oracle {total}")


def power(out: dict, group: oracle.Group, members: np.ndarray, exponents: Sequence[int]) -> None:
    """Exact recount of x^n1 y^n2 = z^n3 over A^3."""
    card = len(members)

    def pw(x: np.ndarray, m: int) -> np.ndarray:
        acc = np.zeros_like(x)
        for _ in range(m):
            acc = group.mul(acc, x)
        return acc

    p1, p2, p3 = (pw(members, m) for m in exponents)
    weights = np.bincount(p3, minlength=group.order)
    count = 0
    for lo in range(0, card, 256):
        count += int(weights[group.mul(p1[lo : lo + 256, None], p2[None, :])].sum())
    require(out["exponents"] == list(exponents), "exponents")
    require(Fraction(out["normalizer_num"], out["normalizer_den"]) == card * card, "power normalizer")
    require(out["count"] == count, f"power count {out['count']} != oracle {count}")
    require(out["degenerate"] == int(np.count_nonzero(group.mul(p1, p2) == p3)), "power diagonal")


def classes(out: dict, order: int, sizes: Optional[Sequence[int]], class_count: int, abelian: bool) -> None:
    got = out["class_sizes"]
    require(out["order"] == order, "order")
    require(out["abelian"] is abelian, "abelian flag")
    require(out["class_count"] == len(got) == class_count, f"class count {out['class_count']} != {class_count}")
    require(got[0] == 1 and sum(got) == order, "class sizes do not partition the group")
    require(all(order % s == 0 for s in got), "a class size does not divide |G|")
    if sizes is not None:
        require(sorted(got) == sorted(sizes), "class sizes differ from the known ones")


def product_mask(group: oracle.Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(group.order, dtype=bool)
    ai, bi = np.nonzero(a)[0], np.nonzero(b)[0]
    for lo in range(0, len(ai), 256):
        out[group.mul(ai[lo : lo + 256, None], bi[None, :]).ravel()] = True
    return out


def stats(out: dict, group: oracle.Group, mask: np.ndarray, m_max: int,
          moduli: Optional[Sequence[int]] = None) -> None:
    """Cardinality, density and the growth numbers, with every productset
    recomputed (by the oracle's products, or by convolution support when
    ``moduli`` names a cyclic product)."""
    card = int(mask.sum())
    n = group.order
    require(out["card"] == card, f"card {out['card']} != oracle {card}")
    require(frac(out["density"]) == Fraction(card, n), "density")
    profile = [frac(f) * card for f in out["growth_profile"]]
    require(len(profile) == m_max and all(p.denominator == 1 for p in profile), "growth profile not integral")
    require(all(x <= y for x, y in zip(profile, profile[1:])) and profile[-1] <= n, "growth profile not monotone")
    for key in ("doubling", "tripling_aaa", "tripling_aia"):
        size = frac(out[key]) * card
        require(size.denominator == 1 and card <= size <= n, f"{key} out of range")

    def prod(x, y):
        if moduli is not None:
            return cyclic_convolution(moduli, x.astype(np.int64), y.astype(np.int64)) > 0
        return product_mask(group, x, y)

    inv = np.zeros(n, dtype=bool)
    inv[group.inverse()[mask]] = True
    aa = prod(mask, mask)
    require(frac(out["doubling"]) * card == int(aa.sum()), "doubling")
    require(frac(out["tripling_aaa"]) * card == int(prod(aa, mask).sum()), "tripling aaa")
    require(frac(out["tripling_aia"]) * card == int(prod(prod(mask, inv), mask).sum()), "tripling aia")
    base = mask | inv
    base[0] = True
    acc = base
    sizes = [int(acc.sum())]
    for _ in range(m_max - 1):
        acc = prod(acc, base)
        sizes.append(int(acc.sum()))
    require(profile == sizes, "growth profile")
    require(out["product_free"] is (not bool(aa[mask].any())), "product_free")


def witness(out: dict, group: oracle.Group, colors: np.ndarray, n: int, nontrivial: bool) -> None:
    """A monochromatic tuple: every increasing subproduct recomputed."""
    elements = out["elements"]
    require(len(elements) == n, "witness length")
    products = oracle.increasing_products(group, elements)
    require(out["products"] == products, "witness products differ from the oracle's")
    require(all(int(colors[v]) == out["color"] for v in products.values()), "witness is not monochromatic")
    if nontrivial:
        require(all(v != 0 for v in products.values()), "nontrivial witness contains the identity")


def regularity(out: dict, group: oracle.Group, members: Sequence[Sequence[int]], eps: Fraction,
               mode: str, trials: int) -> None:
    status = out["status"]
    if status == "violated":
        subsets = [tuple(w) for w in out["witness"]]
        require(len(subsets) == len(members), "witness arity")
        for sub, pool in zip(subsets, members):
            require(set(sub) <= set(pool), "witness is not a subset of its set")
            require(len(set(sub)) >= oracle.ceil_frac(eps.numerator * len(pool), eps.denominator),
                    "witness below the density threshold")
        if len(subsets) == 1:
            require(oracle.rich_witness_ok(group, subsets[0]), "product-rich witness meets its own square")
        else:
            require(oracle.regular_witness_ok(group, group.inverse(), tuple(subsets)), "regular witness fails")
    elif mode == "exact":
        require(status == "verified_exact" and "samples" not in out, f"exact status {status}")
    else:
        require(status == "no_violation_found" and out["samples"] == trials, f"sampled status {status}")


def cip(out: dict, k: int, n: int, trials: int, samples: int) -> None:
    require(out["k"] == k and out["n"] == n and out["trials"] == trials, "cip header")
    per_trial = out["per_trial"]
    require(len(per_trial) == trials, "cip trial count")
    maxima = []
    for trial in per_trial:
        require(len(trial["per_color"]) == k, "cip colors")
        best = max(entry["density"] for entry in trial["per_color"])
        for entry in trial["per_color"]:
            hits = entry["density"] * samples
            require(not entry["exact"] and entry["samples"] == samples, "cip sampling mode")
            require(abs(hits - round(hits)) < 1e-6 and 0 <= hits <= samples, "cip density is not hits/samples")
        require(trial["max_density"] == best, "cip per-trial maximum")
        maxima.append(best)
    maxima.sort()
    require(out["min_max_density"] == maxima[0] and out["max_max_density"] == maxima[-1], "cip extremes")


def schur_search(out: dict, group: oracle.Group, k: int, iterations: int, restarts: int) -> None:
    colors = np.array(out["coloring"]["colors"], dtype=np.int64)
    require(out["coloring"]["k"] == k and len(colors) == group.order, "schur coloring shape")
    counts = [oracle.schur_count(group, colors == j) for j in range(k)]
    require(out["counts"] == counts, f"schur counts {out['counts']} != oracle {counts}")
    require(out["max_count"] == max(counts), "schur max")
    require(out["restarts"] == restarts and 1 <= out["iterations_used"] <= iterations * restarts, "schur iterations")
