"""Colorings of a group: Schur triple counting, adversarial coloring search,
and monochromatic product-tuple search.

The tuple search is a finite adaptation of the shrinking-set recursion
B_{i+1} = B_i meet a_i^-1 B_i: while every B_i stays nonempty, the chosen
elements a_1..a_n have all of their increasing-order subproducts inside B_0.
Greedy element choice (argmax of the surviving set, ties to the least
index) makes the run deterministic; a backtracking search with prefix
pruning covers the colorings the greedy misses; it is the first tuple of
the one prefix walk ``tuples._prefixes``.  Every subproduct here, in a
witness, a backtracking prefix or a block of sampled tuples, comes from the
one recurrence ``tuples._subproducts``.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .counting import CountReport, _Factor, _pair_count, _product_counts, count_xy_eq_z
from .errors import BudgetExceeded, MalformedSpec, require_nonnegative
from .groups import PRODUCT_BLOCK, FiniteGroup
from .reports import PlainRecord
from .rng import SplitMix64, derive
from .sets import GroupSubset
from .tuples import _prefixes, _subproducts, all_nonempty_subsets, count_mixing_tuples

DEFAULT_NODE_BUDGET = 10**7
MAX_EXACT_ITERATIONS = 10**8


class Coloring(PlainRecord):
    """Assignment of one of k colors to every element index.  A plain class,
    since construction checks the colors and makes ``color_of`` read-only;
    no field can be reassigned afterwards."""

    _fields = ("group", "color_of", "k")

    def __init__(self, group: FiniteGroup, color_of: np.ndarray, k: int) -> None:
        colors = np.asarray(color_of, dtype=np.int64)
        if colors.shape != (group.order,):
            raise MalformedSpec("coloring length must equal the group order")
        if k < 1 or (len(colors) and (colors.min() < 0 or colors.max() >= k)):
            raise MalformedSpec("colors must lie in 0..k-1")
        colors.setflags(write=False)
        for name, value in zip(self._fields, (group, colors, k)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def color_class(self, j: int) -> GroupSubset:
        return GroupSubset(self.group, self.color_of == j)

    def classes(self) -> List[GroupSubset]:
        return [self.color_class(j) for j in range(self.k)]

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "colors": self.color_of.tolist()})

    @classmethod
    def from_json(cls, group: FiniteGroup, text: str) -> "Coloring":
        try:
            data = json.loads(text)
        except RecursionError:
            data = None  # nested past the parser's depth: no coloring
        k, colors = (data.get(key) if isinstance(data, dict) else None for key in ("k", "colors"))
        # exact ints below 2^63 only: a float colour would truncate, and a huge one overflow int64
        shaped = type(k) is int and k < 2**63 and isinstance(colors, list)
        if not (shaped and all(type(c) is int and 0 <= c < k for c in colors)):
            raise MalformedSpec('a coloring file must hold {"k": <int>, "colors": [<int in 0..k-1>, ...]}')
        return cls(group, np.asarray(colors, dtype=np.int64), k)

    @classmethod
    def random(cls, group: FiniteGroup, k: int, seed: int) -> "Coloring":
        if k < 1:
            raise MalformedSpec(f"a coloring needs k >= 1 colors, got {k}")
        colors = SplitMix64(derive(seed, 0xC0105)).randrange_array(k, group.order)
        return cls(group, colors, k)


# ---------------------------------------------------------------------------
# Schur triples


class SchurReport(NamedTuple):
    per_color: Tuple[CountReport, ...]
    max_color: int

    @property
    def max_count(self) -> int:
        return self.per_color[self.max_color].count

    def counts(self) -> List[int]:
        return [r.count for r in self.per_color]

    def to_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "max_color": self.max_color,
            "max_count": self.max_count,
            "per_color": [r.to_dict() for r in self.per_color],
        }


def schur_counts(coloring: Coloring, engine: str = "auto") -> SchurReport:
    """Per color j, |{(a, b) : a, b, ab all colored j}|, plus the argmax color.

    The identity triple (id, id, id) is flagged through each report's
    degenerate count; ties on the maximum go to the least color index.
    """
    reports = tuple(
        count_xy_eq_z(cls_, cls_, cls_, engine) for cls_ in coloring.classes()
    )
    best = max(range(coloring.k), key=lambda j: (reports[j].count, -j))
    return SchurReport(reports, best)


def _schur_count_of_mask(group: FiniteGroup, mask: np.ndarray) -> int:
    idx = np.flatnonzero(mask)
    return _pair_count(group, idx, idx, mask)


class AdversarialSearchResult(NamedTuple):
    coloring: Coloring
    max_count: int
    counts: Tuple[int, ...]
    restarts: int
    iterations_used: int

    def to_dict(self) -> dict:
        return {
            "max_count": self.max_count,
            "counts": list(self.counts),
            "restarts": self.restarts,
            "iterations_used": self.iterations_used,
            "coloring": json.loads(self.coloring.to_json()),
        }


def schur_adversarial_search(
    group: FiniteGroup, k: int, iterations: int, restarts: int, seed: int
) -> AdversarialSearchResult:
    """Hill descent minimizing the maximum per-color Schur count.

    Moves recolor one element; a move is taken when it lowers
    (max count, total count), ties broken by element index then new color.
    Each step scores all n(k - 1) moves at once from per-class deltas
    (:func:`_best_schur_move`), at most 3n^2 products a step.
    Restarts run from fresh seeded random colorings; the best local minimum
    over all restarts is returned.  Deterministic given the seed.
    """
    require_nonnegative(iterations=iterations, restarts=restarts)
    n = group.order
    best: Optional[Tuple[int, int, np.ndarray, Tuple[int, ...]]] = None
    used = 0
    for restart in range(max(1, restarts)):
        coloring = Coloring.random(group, k, derive(seed, restart))
        colors = np.array(coloring.color_of)
        counts = [
            _schur_count_of_mask(group, colors == j) for j in range(k)
        ]
        for _ in range(iterations):
            used += 1
            move = _best_schur_move(group, colors, counts, k)
            if move is None:
                break
            element, new_color, new_counts = move
            colors[element] = new_color
            counts = new_counts
        score = (max(counts), sum(counts))
        if best is None or score < (best[0], best[1]):
            best = (score[0], score[1], colors.copy(), tuple(counts))
    assert best is not None
    final = Coloring(group, best[2], k)
    return AdversarialSearchResult(final, best[0], best[3], max(1, restarts), used)


def _best_schur_move(
    group: FiniteGroup, colors: np.ndarray, counts: List[int], k: int
) -> Optional[Tuple[int, int, List[int]]]:
    """The strictly improving recolouring of one element that is least by
    (max count, total count, element, new colour), with the counts after
    it; None when no move improves.

    For a class C and an element e, let A(e) = #{y in C : ey in C},
    B(e) = #{x in C : xe in C} and Z(e) = #{(x, y) in C^2 : xy = e}.
    Adding e to C (e not in C) raises its count by
    A + B + Z + 2[1 in C] + [e^2 in C] + [e = 1]; taking e out of C
    (e in C) lowers it by A + B + Z - 2[1 in C] - [e^2 in C] + [e = 1].
    A + B + Z sums the product counts of C C^-1, C^-1 C and C C: a step takes
    3 sum |C|^2 <= 3n^2 products or three convolutions a class, plus n squares.
    The candidates are scored in row blocks of about PRODUCT_BLOCK entries,
    so A + B + Z is the only (n, k) array a step holds.
    """
    n = group.order
    abz = np.zeros((n, k), dtype=np.int64)
    for j in range(k):
        # C's factor keeps its spectrum, and C^-1's is its conjugate: on a
        # cyclic product the three products transform C once
        c = _Factor(group, np.flatnonzero(colors == j))
        ci = c.inverse()
        for left, right in ((c, ci), (ci, c), (c, c)):
            abz[:, j] += _product_counts(group, left, right)
    elements = np.arange(n)
    palette = np.arange(k)
    identity_color = colors[0]
    square_color = colors[group.mul_arrays(elements, elements)]
    drop = abz[elements, colors] - 2 * (colors == identity_color) - (square_color == colors) + (elements == 0)
    before = np.asarray(counts, dtype=np.int64)
    old_after = before[colors] - drop
    # the largest count outside the element's own class; the new class only
    # grows, so its count before the move may stay in that maximum
    top = np.argsort(-before, kind="stable")[:2]
    rest = np.where(colors == top[0], before[top[-1]], before[top[0]])
    hold = np.maximum(old_after, rest)
    current_max, current_sum = max(counts), sum(counts)
    kept_sum = current_sum - drop
    best: Optional[Tuple[int, int, int, int]] = None  # (new max, new sum, element, colour)
    bonus = 2 * (palette == identity_color)
    rows = max(1, PRODUCT_BLOCK // k)
    for lo in range(0, n, rows):
        at = slice(lo, lo + rows)
        add = abz[at] + bonus
        add += square_color[at, None] == palette
        add += (elements[at] == 0)[:, None]
        new_sum = add + kept_sum[at, None]
        add += before
        new_max = np.maximum(add, hold[at, None], out=add)
        improves = (new_max < current_max) | ((new_max == current_max) & (new_sum < current_sum))
        improves &= palette != colors[at, None]
        if improves.any():
            improves &= new_max == new_max[improves].min()
            improves &= new_sum == new_sum[improves].min()
            first = int(np.flatnonzero(improves)[0])
            move = (int(new_max.flat[first]), int(new_sum.flat[first]), lo + first // k, first % k)
            if best is None or move < best:
                best = move
        del add, new_max, new_sum, improves  # one block at a time
    if best is None:
        return None
    _, new_sum, element, new_color = best
    trial = list(counts)
    trial[int(colors[element])] = int(old_after[element])
    # the move adds new_sum - kept_sum to the receiving class
    trial[new_color] = int(before[new_color] + new_sum - kept_sum[element])
    return element, new_color, trial


def exhaustive_schur_minimum(group: FiniteGroup, k: int) -> int:
    """Minimum over all k^n colorings of the max per-color Schur count.

    Only feasible for tiny groups; used as the oracle for the search.
    """
    n = group.order
    if k**n > 2_000_000:
        raise BudgetExceeded(f"{k}^{n} colorings exceed the exhaustive budget")
    best = None
    colors = np.zeros(n, dtype=np.int64)
    for code in range(k**n):
        c = code
        for i in range(n):
            colors[i] = c % k
            c //= k
        worst = max(_schur_count_of_mask(group, colors == j) for j in range(k))
        if best is None or worst < best:
            best = worst
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# monochromatic product tuples


class TupleWitness(NamedTuple):
    """A tuple whose increasing-order subproducts all lie in one set.

    ``products`` maps each nonempty index subset F (sorted tuple of 1-based
    positions) to the element a_F.
    """

    elements: Tuple[int, ...]
    color: Optional[int]
    products: Dict[Tuple[int, ...], int]

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "color": self.color,
            "products": {",".join(map(str, f)): v for f, v in self.products.items()},
        }


class FailureTrace(NamedTuple):
    """Trace of the shrinking sets when the greedy recursion dies out."""

    chosen: Tuple[int, ...]
    survivor_sizes: Tuple[int, ...]
    failed_at_step: int

    def to_dict(self) -> dict:
        return {
            "chosen": list(self.chosen),
            "survivor_sizes": list(self.survivor_sizes),
            "failed_at_step": self.failed_at_step,
        }


class Exhausted(NamedTuple):
    budget_hit: bool

    def to_dict(self) -> dict:
        return {"exhausted": True, "budget_hit": self.budget_hit}


def increasing_products(group: FiniteGroup, elements: Sequence[int]) -> Dict[Tuple[int, ...], int]:
    """All a_F for nonempty F, products taken in increasing index order."""
    return dict(zip(all_nonempty_subsets(len(elements)), _subproducts(group.mul, elements)))


def validate_witness(group: FiniteGroup, witness: TupleWitness, target: GroupSubset) -> bool:
    """Recompute every subproduct independently and test membership."""
    products = increasing_products(group, witness.elements)
    if products != witness.products:
        return False
    return all(target.contains(v) for v in products.values())


def hindman_greedy(a: GroupSubset, n: int) -> Union[TupleWitness, FailureTrace]:
    """Greedy shrinking-set recursion on the set a.

    Step i picks a_i maximizing |B_i meet a^-1 B_i| over a in B_i (ties to
    the least index) and shrinks B_{i+1} = B_i meet a_i^-1 B_i; the run
    succeeds when n elements are chosen with every survivor set nonempty.
    One product count scores every candidate a at once: the number of y in
    B_i with a*y in B_i is the number of (z, y) in B_i^2 with z*y^-1 = a.
    Successful witnesses are re-validated against the raw definition.
    """
    if n < 1:
        raise MalformedSpec(f"tuple length must be >= 1, got {n}")
    group = a.group
    current = a.mask.copy()
    chosen: List[int] = []
    sizes: List[int] = [int(current.sum())]
    for step in range(n):
        members = np.flatnonzero(current)
        if len(members) == 0:
            return FailureTrace(tuple(chosen), tuple(sizes), step)
        scores = _product_counts(group, members, group.inverse_table[members].astype(np.int64))[members]
        best = int(np.argmax(scores))  # the first maximum: ties to the least index
        best_elem, best_size = int(members[best]), int(scores[best])
        chosen.append(best_elem)
        sizes.append(best_size)
        if best_size == 0:
            return FailureTrace(tuple(chosen), tuple(sizes), step + 1)
        current &= current[group.mul_arrays(best_elem, np.arange(group.order, dtype=np.int64))]
    witness = TupleWitness(tuple(chosen), None, increasing_products(group, chosen))
    if not validate_witness(group, witness, a):
        raise AssertionError("greedy witness failed re-validation")
    return witness


def monochromatic_tuple_search(
    coloring: Coloring,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    nontrivial: bool = False,
) -> Union[TupleWitness, Exhausted]:
    """Find a tuple whose subproducts are monochromatic, trying colors in order.

    Per color: the greedy recursion first (skipped in nontrivial mode, where
    all a_i and all subproducts must differ from the identity), then exact
    backtracking with prefix pruning under the node budget.  The identity's
    color always admits (id,..,id), so in trivial mode the search cannot
    come back empty.
    """
    if n < 1:
        raise MalformedSpec(f"tuple length must be >= 1, got {n}")
    require_nonnegative(budget=budget)
    group = coloring.group
    identity_color = int(coloring.color_of[0])
    budget_hit = False
    for j in range(coloring.k):
        cls_ = coloring.color_class(j)
        if cls_.card == 0:
            continue
        if not nontrivial:
            result = hindman_greedy(cls_, n)
            if j == identity_color and not isinstance(result, TupleWitness):
                raise AssertionError("greedy must succeed on the identity's color class")
            if isinstance(result, TupleWitness):
                return TupleWitness(result.elements, j, result.products)
        # nontrivial mode drops the identity from the targets, not the candidates
        target = GroupSubset(group, cls_.mask & (np.arange(group.order) != 0)) if nontrivial else cls_
        found, hit = _backtrack_tuple(group, cls_.indices.tolist(), target.mask, n, budget)
        budget_hit = budget_hit or hit
        if found is not None:
            witness = TupleWitness(found, j, increasing_products(group, found))
            if not validate_witness(group, witness, target):
                raise AssertionError("witness failed re-validation")
            return witness
    return Exhausted(budget_hit)


def _backtrack_tuple(
    group: FiniteGroup,
    candidates: List[int],
    mask: np.ndarray,
    n: int,
    budget: int,
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Depth-first search over ``candidates`` for a tuple whose every
    subproduct lies in ``mask``; each candidate tried is one node, and the
    candidates run out once the nodes pass ``budget``."""
    nodes = 0

    def choices(_: int):
        nonlocal nodes
        for cand in candidates:
            nodes += 1
            if nodes > budget:
                return
            yield cand

    found = next(_prefixes(group.mul, choices, lambda _, v: mask[v], n), None)
    return (None if found is None else found[0]), nodes > budget


# ---------------------------------------------------------------------------
# conjectured-density experiment over random colorings


def monochromatic_tuple_density(
    coloring: Coloring,
    n: int,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Max over colors of the density of monochromatic n-tuples.

    Exact when n <= 4 and |G|^n is at most ``MAX_EXACT_ITERATIONS``,
    otherwise a uniform sample with a reported standard error.
    """
    if n < 1:
        raise MalformedSpec(f"tuple length must be >= 1, got {n}")
    group = coloring.group
    total = group.order**n
    exact = n <= 4 and total <= MAX_EXACT_ITERATIONS
    if not exact and samples < 1:
        raise MalformedSpec(f"a sampled density needs samples >= 1, got {samples}")
    best = {"color": -1, "density": -1.0}
    per_color = []
    for j in range(coloring.k):
        cls_ = coloring.color_class(j)
        if cls_.card == 0:
            entry = {"color": j, "density": 0.0, "exact": True}
            per_color.append(entry)
            continue
        if exact:
            sets = {f: cls_ for f in all_nonempty_subsets(n)}
            count = cls_.card if n == 1 else count_mixing_tuples(n, sets).count
            entry = {"color": j, "count": count, "density": count / total, "exact": True}
        else:
            hits = 0
            stream = SplitMix64(derive(seed, 0xC1B, j))
            # blocks of about 2^16 draws; consecutive block draws continue
            # one stream, so the tuples equal one samples*n draw
            rows = max(1, (1 << 16) // n)
            for lo in range(0, samples, rows):
                block = stream.randrange_array(group.order, min(rows, samples - lo) * n)
                hits += _count_inside(group.mul_arrays, cls_.mask, block.reshape(-1, n).T)
            p = hits / samples
            se = (p * (1 - p) / samples) ** 0.5
            entry = {
                "color": j,
                "density": p,
                "stderr": se,
                "samples": samples,
                "exact": False,
            }
        per_color.append(entry)
        if entry["density"] > best["density"]:
            best = {"color": j, "density": entry["density"]}
    return {"n": n, "max_color": best["color"], "max_density": best["density"], "per_color": per_color}


def _count_inside(mul, mask: np.ndarray, cols: np.ndarray, prods: Optional[np.ndarray] = None) -> int:
    """How many columns of ``cols`` (one tuple each, a row per position) have
    every subproduct in ``mask``; ``prods`` holds the subproducts of earlier
    positions as rows, in the order of ``all_nonempty_subsets``.  A tuple
    leaves at its first position with a subproduct outside ``mask``.
    Survivors whose next rows would pass PRODUCT_BLOCK go on in chunks sized
    for all 2^n - 1 rows; only a lone tuple whose first PRODUCT_BLOCK
    (2^16) subproducts lie in ``mask`` holds more."""
    if prods is None:
        prods = np.empty((0, cols.shape[1]), dtype=np.int64)
    while len(cols) and cols.shape[1]:
        m = cols.shape[1]
        if m > 1 and m * (2 * len(prods) + 1) > PRODUCT_BLOCK:
            chunk = max(1, PRODUCT_BLOCK // (((len(prods) + 1) << len(cols)) - 1))
            return sum(
                _count_inside(mul, mask, cols[:, lo : lo + chunk], prods[:, lo : lo + chunk])
                for lo in range(0, m, chunk)
            )
        # the prefix's rows go through the recurrence as one block: they
        # come back as [rows, a, rows * a], the next rows in order
        done = len(prods)
        prods = np.vstack(_subproducts(mul, (cols[0],), (prods,)))
        keep = mask[prods[done:]].all(axis=0)
        cols = cols[1:]
        if not keep.all():
            cols, prods = cols[:, keep], prods[:, keep]
    return cols.shape[1]


def cip_density_experiment(
    group: FiniteGroup,
    k: int,
    n: int,
    trials: int,
    seed: int,
    *,
    samples: int = 100_000,
) -> dict:
    """Observed max monochromatic n-tuple densities over seeded random colorings.

    Reports per-trial maxima and their min/median/max; makes no claim about
    any conjectured lower bound, it only measures.
    """
    from statistics import median  # only this experiment takes a median

    if trials < 1:
        raise MalformedSpec("trials must be >= 1")
    require_nonnegative(samples=samples)
    per_trial = []
    for t in range(trials):
        coloring = Coloring.random(group, k, derive(seed, t))
        result = monochromatic_tuple_density(coloring, n, samples=samples, seed=derive(seed, t, 1))
        per_trial.append(result)
    maxima = sorted(r["max_density"] for r in per_trial)
    return {
        "group": group.spec_text,
        "k": k,
        "n": n,
        "trials": trials,
        "seed": seed,
        "min_max_density": maxima[0],
        "median_max_density": median(maxima),
        "max_max_density": maxima[-1],
        "per_trial": per_trial,
    }
