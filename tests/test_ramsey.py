from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

from grplab import counting, ramsey
from grplab.counting import _subproducts, all_nonempty_subsets
from grplab.errors import MalformedSpec
from grplab.groups import build_group
from grplab.ramsey import (
    Coloring,
    Exhausted,
    FailureTrace,
    TupleWitness,
    cip_density_experiment,
    exhaustive_schur_minimum,
    hindman_greedy,
    increasing_products,
    monochromatic_tuple_density,
    monochromatic_tuple_search,
    schur_adversarial_search,
    _schur_count_of_mask,
    schur_counts,
    validate_witness,
)
from grplab.rng import SplitMix64, derive
from grplab.sets import GroupSubset, make_set

from conftest import FLEET_SPECS, fleet_group, traced_peak


def test_coloring_round_trip():
    z6 = build_group("Z/6")
    col = Coloring(z6, np.array([0, 1, 2, 0, 1, 2]), 3)
    again = Coloring.from_json(z6, col.to_json())
    assert np.array_equal(again.color_of, col.color_of) and again.k == 3


def test_random_coloring_is_seeded():
    z20 = build_group("Z/20")
    a = Coloring.random(z20, 3, 7)
    b = Coloring.random(z20, 3, 7)
    c = Coloring.random(z20, 3, 8)
    assert np.array_equal(a.color_of, b.color_of)
    assert not np.array_equal(a.color_of, c.color_of)


# --- Schur counts -----------------------------------------------------------


def test_schur_single_color(any_fleet_group):
    g = any_fleet_group
    col = Coloring(g, np.zeros(g.order, dtype=np.int64), 1)
    rep = schur_counts(col)
    assert rep.counts() == [g.order**2]
    assert rep.max_color == 0


def test_schur_z5_example():
    z5 = build_group("Z/5")
    col = Coloring(z5, np.array([0, 1, 1, 1, 1]), 2)
    rep = schur_counts(col)
    assert rep.counts() == [1, 12]
    assert rep.max_color == 1
    # the identity triple is flagged in color 0's report
    assert rep.per_color[0].degenerate_count == 1
    assert rep.per_color[1].degenerate_count == 0


def test_schur_empty_color_class():
    z4 = build_group("Z/4")
    col = Coloring(z4, np.zeros(4, dtype=np.int64), 2)
    assert schur_counts(col).counts()[1] == 0


def test_schur_counts_sum_invariant():
    g = fleet_group("perm:(1 2 3);(1 2)")
    for seed in (1, 2, 3):
        col = Coloring.random(g, 3, seed)
        rep = schur_counts(col)
        assert sum(rep.counts()) <= g.order**2
    single = schur_counts(Coloring(g, np.zeros(g.order, dtype=np.int64), 1))
    assert sum(single.counts()) == g.order**2


def test_adversarial_search_k1_is_vacuous():
    z5 = build_group("Z/5")
    res = schur_adversarial_search(z5, 1, iterations=5, restarts=2, seed=0)
    assert res.max_count == 25


def test_adversarial_search_z3_k3():
    z3 = build_group("Z/3")
    res = schur_adversarial_search(z3, 3, iterations=30, restarts=6, seed=2)
    assert res.max_count == exhaustive_schur_minimum(z3, 3) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_adversarial_search_matches_exhaustive(n):
    g = build_group(f"Z/{n}")
    floor = exhaustive_schur_minimum(g, 2)
    res = schur_adversarial_search(g, 2, iterations=100, restarts=10, seed=5)
    assert res.max_count == floor
    assert res.max_count >= floor  # the search can never beat the true minimum


def test_adversarial_search_deterministic():
    z6 = build_group("Z/6")
    a = schur_adversarial_search(z6, 2, iterations=50, restarts=5, seed=9)
    b = schur_adversarial_search(z6, 2, iterations=50, restarts=5, seed=9)
    assert a.max_count == b.max_count
    assert np.array_equal(a.coloring.color_of, b.coloring.color_of)


def test_random_coloring_refuses_fewer_than_one_color(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(ramsey, "SplitMix64", no_draws)
    z5 = build_group("Z/5")
    for k in (0, -1):
        with pytest.raises(MalformedSpec, match="k >= 1"):
            Coloring.random(z5, k, 3)


def _best_recolor_move(group, colors, counts, k):
    """The search's move by brute force: every one of the n(k - 1)
    recolourings, each scored by recounting the two classes it touches
    (O(n^3) products a step); strict improvement only, so ties go to the
    least (element, new colour)."""
    current = (max(counts), sum(counts))
    best_move = None
    for element in range(group.order):
        old = int(colors[element])
        for new in range(k):
            if new == old:
                continue
            colors[element] = new
            trial = list(counts)
            trial[old] = _schur_count_of_mask(group, colors == old)
            trial[new] = _schur_count_of_mask(group, colors == new)
            colors[element] = old
            score = (max(trial), sum(trial))
            if score < current and (best_move is None or score < best_move[0]):
                best_move = (score, element, new, trial)
    if best_move is None:
        return None
    return best_move[1], best_move[2], best_move[3]


def _assert_moves_match(g, colors, k, steps):
    # walks the oracle's moves from ``colors``; returns the moves taken
    colors = np.array(colors)
    counts = [_schur_count_of_mask(g, colors == j) for j in range(k)]
    moves = []
    for _ in range(steps):
        want = _best_recolor_move(g, colors.copy(), counts, k)
        assert ramsey._best_schur_move(g, colors, counts, k) == want
        if want is None:
            break
        moves.append(want)
        colors[want[0]] = want[1]
        counts = want[2]
    return moves


# Z/2 x Z/2 x Z/6 has 7 involutions: e^2 = 1 for a third of its elements
SCORER_GROUPS = ["PSL2(5)", "PSL2(7)", "perm:(1 2 3 4);(1 2)", "perm:(1 2 3 4 5);(1 2)", "Z/60", "Z/2 x Z/2 x Z/6"]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("spec", SCORER_GROUPS)
def test_delta_scorer_matches_the_full_recount(spec, k):
    g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
    for seed in range(2):
        colors = np.array(Coloring.random(g, k, derive(83, seed)).color_of)
        # the identity in every class in turn
        for one in range(k):
            colors[0] = one
            _assert_moves_match(g, colors, k, 3)


@pytest.mark.parametrize("spec", ["PSL2(5)", "Z/2 x Z/2 x Z/6", "Z/12"])
def test_delta_scorer_moves_the_identity_out_of_a_single_class(spec):
    # from one colour, taking out the identity lowers the count by 3n - 2
    # and every other element by 3n - 3
    g = build_group(spec)
    moves = _assert_moves_match(g, np.zeros(g.order, dtype=np.int64), 2, 4)
    assert moves[0][:2] == (0, 1)


def test_delta_scorer_with_empty_classes():
    z12 = build_group("Z/12")
    for seed in range(4):
        colors = Coloring.random(z12, 12, derive(89, seed)).color_of
        assert len(set(colors.tolist())) < 12
        _assert_moves_match(z12, colors, 12, 4)
    _assert_moves_match(z12, np.zeros(12, dtype=np.int64), 12, 4)


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize("spec, k", [("PSL2(5)", 3), ("Z/2 x Z/2 x Z/6", 4), ("Z/12", 12)])
def test_delta_scorer_matches_the_full_recount_across_row_blocks(monkeypatch, spec, k, block):
    # blocks of one row, of a few rows that do not divide n, and of rows of
    # several elements: the least move over all blocks is the oracle's
    monkeypatch.setattr(ramsey, "PRODUCT_BLOCK", block)
    g = build_group(spec)
    for seed in range(2):
        colors = np.array(Coloring.random(g, k, derive(97, seed)).color_of)
        _assert_moves_match(g, colors, k, 3)
    _assert_moves_match(g, np.zeros(g.order, dtype=np.int64), k, 3)


def test_schur_step_at_k_equal_n_holds_one_n_by_k_array():
    # A + B + Z alone takes n*k*8 = 32 MB here; the candidates are scored in
    # row blocks of about PRODUCT_BLOCK (2^16) entries, so the step stays
    # within twice that (32 MB traced; 50 MB with blocks of 2^20)
    n = k = 2000
    g = build_group(f"Z/{n}")
    colors = np.array(Coloring.random(g, k, 5).color_of)
    counts = [_schur_count_of_mask(g, colors == j) for j in range(k)]
    move, peak = traced_peak(lambda: ramsey._best_schur_move(g, colors, counts, k))
    assert peak <= 2 * n * k * 8, peak
    element, new_color, after = move
    colors[element] = new_color
    assert after == [_schur_count_of_mask(g, colors == j) for j in range(k)]
    assert (max(after), sum(after)) < (max(counts), sum(counts))


def _oracle_driven_search(monkeypatch, *args, **kwargs):
    calls = []

    def oracle(*move_args):
        calls.append(1)
        return _best_recolor_move(*move_args)

    with monkeypatch.context() as patch:
        patch.setattr(ramsey, "_best_schur_move", oracle)
        result = schur_adversarial_search(*args, **kwargs).to_dict()
    assert len(calls) == result["iterations_used"]
    return result


@pytest.mark.parametrize(
    "spec, k, iterations, restarts, seed",
    [
        ("PSL2(5)", 2, 4, 2, 1),
        ("PSL2(7)", 2, 3, 3, 0),
        ("perm:(1 2 3 4);(1 2)", 3, 30, 2, 7),
        ("Z/2 x Z/2 x Z/6", 4, 30, 2, 5),
        ("Z/12", 12, 20, 2, 2),
    ],
)
def test_search_matches_the_oracle_driven_search(monkeypatch, spec, k, iterations, restarts, seed):
    g = build_group(spec)
    got = schur_adversarial_search(g, k, iterations=iterations, restarts=restarts, seed=seed).to_dict()
    assert got == _oracle_driven_search(monkeypatch, g, k, iterations=iterations, restarts=restarts, seed=seed)


def test_search_with_k_near_n_holds_o_nk_memory(monkeypatch):
    # an (n, k, k) int64 array of trial counts alone would take 1.7 MB here
    z60 = build_group("Z/60")
    got, peak = traced_peak(lambda: schur_adversarial_search(z60, 60, iterations=2, restarts=1, seed=3).to_dict())
    assert peak <= 32 * 60 * 60 * 8, peak
    assert got == _oracle_driven_search(monkeypatch, z60, 60, iterations=2, restarts=1, seed=3)


def _forced_cayley(patch, asked):
    """Force Cayley on every product count, noting what each one asks."""

    def resolve(g, engine, pairs):
        asked.append((engine, pairs))
        return "CayleyConvolution"

    patch.setattr(counting, "_resolve_engine", resolve)


def test_search_on_a_large_cyclic_group_matches_a_cayley_search(monkeypatch):
    # on Z/2000 the starting counts and the scorer's product counts convolve;
    # forcing Cayley must not move a count, a move or a byte of the result
    z2000 = build_group("Z/2000")
    assert _schur_count_of_mask(z2000, np.arange(2000) % 4 == 0) == 500 * 500
    got = schur_adversarial_search(z2000, 2, iterations=1, restarts=2, seed=4).to_dict()
    forced = []
    with monkeypatch.context() as patch:
        _forced_cayley(patch, forced)
        assert got == schur_adversarial_search(z2000, 2, iterations=1, restarts=2, seed=4).to_dict()
    # per restart: the two starting counts, then the step's three product
    # counts per class, each planned at |C|^2 pairs
    assert [engine for engine, _ in forced] == ["auto"] * 16
    sizes = [math.isqrt(pairs) for _, pairs in forced]
    assert [size * size for size in sizes] == [pairs for _, pairs in forced]
    for c0, c1, *step in (sizes[:8], sizes[8:]):
        assert c0 + c1 == 2000 and step == [c0] * 3 + [c1] * 3
    assert {counting._resolve_engine(z2000, "auto", pairs) for _, pairs in forced} == {"AbelianFFT"}


@pytest.mark.parametrize("spec", ["Z/2000", "Z/2 x Z/1000"])
def test_greedy_on_a_large_cyclic_group_matches_a_cayley_greedy(monkeypatch, spec):
    # the first steps score about 10^6 pairs by convolution, the last ones
    # fewer than 2^16 by a scan; forcing Cayley throughout moves no choice
    g = build_group(spec)
    classes = Coloring.random(g, 2, 11).classes()
    runs = [(cls_, n) for cls_ in classes for n in (3, 12)]
    got = [hindman_greedy(cls_, n) for cls_, n in runs]
    assert {type(result) for result in got} == {TupleWitness, FailureTrace}
    forced = []
    with monkeypatch.context() as patch:
        _forced_cayley(patch, forced)
        assert got == [hindman_greedy(cls_, n) for cls_, n in runs]
    # one product count of B_i x B_i^-1 per step, planned at |B_i|^2 pairs
    sizes = [size for (cls_, _), result in zip(runs, got) for size in _greedy_step_sizes(cls_, result)]
    assert forced == [("auto", size * size) for size in sizes]
    engines = [counting._resolve_engine(g, "auto", pairs) for _, pairs in forced]
    assert {"AbelianFFT", "CayleyConvolution"} <= set(engines)


def _greedy_step_sizes(a, result):
    """|B_i| at each step the greedy scored: one step per chosen element."""
    chosen = result.elements if isinstance(result, TupleWitness) else result.chosen
    current, sizes = a.mask.copy(), []
    for elem in chosen:
        sizes.append(int(current.sum()))
        current &= current[a.group.mul_arrays(elem, np.arange(a.group.order))]
    return sizes


# --- greedy tuple recursion --------------------------------------------------


def test_greedy_worked_example():
    z8 = build_group("Z/8")
    a = GroupSubset.from_indices(z8, [1, 2, 3])
    result = hindman_greedy(a, 2)
    assert isinstance(result, TupleWitness)
    assert result.elements == (1, 1)
    assert result.products == {(1,): 1, (2,): 1, (1, 2): 2}
    # one more step dies out: B_2 = {1} and 1+1 = 2 is no longer inside
    fail = hindman_greedy(a, 3)
    assert isinstance(fail, FailureTrace)
    assert fail.survivor_sizes == (3, 2, 1, 0)


def test_greedy_on_subgroup_always_succeeds():
    z12 = build_group("Z/12")
    h = GroupSubset.from_indices(z12, [0, 4, 8])
    for n in (1, 2, 4):
        result = hindman_greedy(h, n)
        assert isinstance(result, TupleWitness)
        assert all(h.contains(v) for v in result.products.values())


def test_greedy_identity_singleton():
    z5 = build_group("Z/5")
    result = hindman_greedy(GroupSubset.from_indices(z5, [0]), 3)
    assert isinstance(result, TupleWitness)
    assert result.elements == (0, 0, 0)


def _greedy_by_candidate(a, n):
    """The per-candidate greedy loop: every a in B_i scored by its own
    translated mask over the whole group, strict improvement only, so ties
    go to the least index."""
    group = a.group
    current = a.mask.copy()
    chosen, sizes = [], [int(current.sum())]
    for step in range(n):
        members = np.nonzero(current)[0]
        if len(members) == 0:
            return FailureTrace(tuple(chosen), tuple(sizes), step)
        best_elem, best_size, best_mask = -1, -1, None
        for cand in members.tolist():
            nxt = current & current[group.mul_arrays(cand, np.arange(group.order))]
            size = int(nxt.sum())
            if size > best_size:
                best_elem, best_size, best_mask = cand, size, nxt
        chosen.append(best_elem)
        sizes.append(best_size)
        if best_size == 0:
            return FailureTrace(tuple(chosen), tuple(sizes), step + 1)
        current = best_mask
    return TupleWitness(tuple(chosen), None, increasing_products(group, chosen))


# (group, set, n, outcome); the identity is taken out of every set, so that
# it never wins step 1.  A subgroup minus the identity forces a tie: every
# a in it keeps |H| - 2 of the y in it.
GREEDY_CASES = [
    ("perm:(1 2 3 4);(1 2)", "random:0.5,3", 4, FailureTrace),
    ("perm:(1 2 3 4);(1 2)", "subgroup:1,2", 3, FailureTrace),
    ("perm:(1 2 3 4);(1 2)", "subgroup:7,9", 3, TupleWitness),
    ("perm:(1 2 3 4);(1 2)", "explicit:5", 2, FailureTrace),
    ("PSL2(7)", "random:0.4,5", 4, FailureTrace),
    ("PSL2(7)", "subgroup:5,9", 3, TupleWitness),
    ("perm:(1 2 3 4 5 6 7);(1 2)", "random:0.1,7", 3, FailureTrace),
    ("perm:(1 2 3 4 5 6 7);(1 2)", "subgroup:3,40", 3, TupleWitness),
    ("Z/4 x Z/6", "random:0.5,1", 3, FailureTrace),
    ("Z/4 x Z/6", "subgroup:4,6", 3, TupleWitness),
]


@pytest.mark.parametrize("spec, set_spec, n, outcome", GREEDY_CASES)
def test_greedy_pair_scan_matches_the_per_candidate_loop(spec, set_spec, n, outcome):
    g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
    a = make_set(g, set_spec)
    a = GroupSubset.from_indices(g, [i for i in a.to_index_list() if i != 0])
    result = hindman_greedy(a, n)
    assert result == _greedy_by_candidate(a, n)
    assert isinstance(result, outcome)
    if set_spec.startswith("subgroup:"):
        # the tie of step 1 goes to the least member
        first = result.elements[0] if outcome is TupleWitness else result.chosen[0]
        assert first == min(a.to_index_list())


def test_increasing_products_order_matters():
    s3 = fleet_group("perm:(1 2 3);(1 2)")
    # pick two non-commuting elements
    x, y = 1, 3
    if s3.mul(x, y) == s3.mul(y, x):
        pytest.skip("chosen elements commute")
    prods = increasing_products(s3, [x, y])
    assert prods[(1, 2)] == s3.mul(x, y)
    assert prods[(1, 2)] != s3.mul(y, x)


def test_validate_witness_rejects_tampering():
    z5 = build_group("Z/5")
    a = GroupSubset.full(z5)
    w = hindman_greedy(a, 2)
    bad = TupleWitness(w.elements, None, {**w.products, (1, 2): (w.products[(1, 2)] + 1) % 5})
    assert not validate_witness(z5, bad, a)


# --- monochromatic search ----------------------------------------------------


def test_search_single_color_identity_tuple(any_fleet_group):
    g = any_fleet_group
    col = Coloring(g, np.zeros(g.order, dtype=np.int64), 1)
    w = monochromatic_tuple_search(col, 3)
    assert isinstance(w, TupleWitness)
    assert validate_witness(g, w, col.color_class(w.color))


def test_search_z5_nontrivial_witness():
    z5 = build_group("Z/5")
    col = Coloring(z5, np.array([0, 1, 1, 1, 1]), 2)
    w = monochromatic_tuple_search(col, 2, nontrivial=True)
    assert isinstance(w, TupleWitness)
    assert w.color == 1
    assert 0 not in w.products.values()


def test_search_nontrivial_exhausted_on_z2():
    z2 = build_group("Z/2")
    col = Coloring(z2, np.array([0, 1]), 2)
    result = monochromatic_tuple_search(col, 2, nontrivial=True)
    assert isinstance(result, Exhausted)
    assert not result.budget_hit  # fully explored, not a budget stop


def test_search_never_exhausted_in_trivial_mode():
    for spec in ("Z/16", "perm:(1 2 3 4);(1 2)"):
        g = build_group(spec)
        for seed in range(5):
            col = Coloring.random(g, 2, derive(31, seed))
            w = monochromatic_tuple_search(col, 3)
            assert isinstance(w, TupleWitness)
            assert validate_witness(g, w, col.color_class(w.color))


def _backtrack_with_identity_checks(group, target, n, budget, nontrivial):
    # the backtracking search as it stood with explicit identity checks:
    # the oracle for the nontrivial mode's target mask without the identity
    mask = target.mask
    candidates = target.indices.tolist()
    nodes = 0

    def extend(prefix, prods):
        nonlocal nodes
        if len(prefix) == n:
            return tuple(prefix)
        for cand in candidates:
            nodes += 1
            if nodes > budget:
                return None
            if nontrivial and cand == 0:
                continue
            new_prods = [cand] + [group.mul(p, cand) for p in prods]
            if any(not mask[v] for v in new_prods):
                continue
            if nontrivial and any(v == 0 for v in new_prods):
                continue
            result = extend(prefix + [cand], prods + new_prods)
            if result is not None:
                return result
            if nodes > budget:
                return None
        return None

    found = extend([], [])
    return found, nodes > budget


def _nontrivial_search_oracle(coloring, n, budget):
    budget_hit = False
    for j in range(coloring.k):
        cls_ = coloring.color_class(j)
        if cls_.card == 0:
            continue
        found, hit = _backtrack_with_identity_checks(coloring.group, cls_, n, budget, True)
        budget_hit = budget_hit or hit
        if found is not None:
            return found, j
    return Exhausted(budget_hit)


@pytest.mark.parametrize("spec", ["Z/9", "perm:(1 2 3 4);(1 2)", "PSL2(5)"])
def test_nontrivial_search_matches_the_explicit_identity_checks(spec):
    g = fleet_group(spec) if spec in FLEET_SPECS else build_group(spec)
    seen = set()
    for k, n, seed in ((2, 2, 3), (2, 3, 5), (3, 3, 8)):
        col = Coloring.random(g, k, derive(61, seed))
        for budget in range(1, 201):
            got = monochromatic_tuple_search(col, n, budget=budget, nontrivial=True)
            want = _nontrivial_search_oracle(col, n, budget)
            if isinstance(want, Exhausted):
                assert got == want
            else:
                assert (got.elements, got.color) == want
                assert 0 not in got.products.values()
            seen.add(type(got))
    assert seen == {TupleWitness, Exhausted}


def test_greedy_success_implies_search_success():
    z9 = build_group("Z/9")
    col = Coloring.random(z9, 2, 77)
    for j in range(2):
        cls_ = col.color_class(j)
        if cls_.card == 0:
            continue
        if isinstance(hindman_greedy(cls_, 2), TupleWitness):
            w = monochromatic_tuple_search(col, 2)
            assert isinstance(w, TupleWitness)
            break


# --- density experiments -----------------------------------------------------


def test_cip_single_color_density_one():
    z4 = build_group("Z/4")
    out = cip_density_experiment(z4, 1, 2, trials=2, seed=0)
    assert out["min_max_density"] == 1.0


def test_cip_above_four_samples_on_a_small_group():
    # Z/10 at n = 5 has 10^5 tuples, inside the exact budget, but no exact
    # count exists past n = 4: it samples as Z/100 does
    out = cip_density_experiment(build_group("Z/10"), 2, 5, trials=2, seed=0, samples=2000)
    entries = [e for trial in out["per_trial"] for e in trial["per_color"]]
    assert entries and not any(e["exact"] for e in entries)


@pytest.mark.parametrize("n", [0, -2])
def test_cip_refuses_n_below_one(n):
    col = Coloring.random(build_group("Z/10"), 2, 0)
    with pytest.raises(MalformedSpec, match=f"tuple length must be >= 1, got {n}"):
        monochromatic_tuple_density(col, n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: cip_density_experiment(g, 2, 2, trials=1, seed=0, samples=-1), "samples must be >= 0, got -1"),
        (lambda g: cip_density_experiment(g, 2, 5, trials=1, seed=0, samples=0), "needs samples >= 1, got 0"),
        (
            lambda g: monochromatic_tuple_search(Coloring.random(g, 2, 1), 2, budget=-1),
            "budget must be >= 0, got -1",
        ),
        (lambda g: schur_adversarial_search(g, 2, -1, 1, 0), "iterations must be >= 0, got -1"),
        (lambda g: schur_adversarial_search(g, 2, 1, -5, 0), "restarts must be >= 0, got -5"),
    ],
    ids=["cip-samples", "cip-sampled-zero", "hindman-budget", "schur-iterations", "schur-restarts"],
)
def test_negative_counts_are_refused(call, message):
    with pytest.raises(MalformedSpec, match=message):
        call(build_group("Z/10"))


def test_zero_counts_keep_their_meaning():
    g = build_group("Z/10")
    # no restarts still runs one, with no descent step
    result = schur_adversarial_search(g, 2, 0, 0, 0)
    assert (result.restarts, result.iterations_used) == (1, 0)
    # an exact density reads no samples
    assert cip_density_experiment(g, 2, 2, trials=1, seed=0, samples=0)["per_trial"][0]["per_color"][0]["exact"]
    # a zero budget leaves the greedy witness in trivial mode
    assert isinstance(monochromatic_tuple_search(Coloring.random(g, 2, 1), 2, budget=0), TupleWitness)


def _mono_density_oracle(group, coloring, n):
    # literal enumeration over all tuples and all subproducts
    best = 0.0
    for j in range(coloring.k):
        mask = coloring.color_of == j
        count = 0
        import itertools

        for tup in itertools.product(range(group.order), repeat=n):
            ok = True
            for fmask in range(1, 1 << n):
                prod = 0
                for i in range(n):
                    if (fmask >> i) & 1:
                        prod = group.mul(prod, tup[i])
                if not mask[prod]:
                    ok = False
                    break
            if ok:
                count += 1
        best = max(best, count / group.order**n)
    return best


def test_cip_exact_matches_oracle_on_z3():
    z3 = build_group("Z/3")
    out = cip_density_experiment(z3, 2, 2, trials=4, seed=6)
    for trial_idx, trial in enumerate(out["per_trial"]):
        col = Coloring.random(z3, 2, derive(6, trial_idx))
        assert trial["max_density"] == pytest.approx(_mono_density_oracle(z3, col, 2))


def test_random_coloring_and_sampled_density_follow_the_scalar_stream(monkeypatch):
    # 22000 triples are 66000 draws: more than one block of 2^16
    monkeypatch.setattr(ramsey, "MAX_EXACT_ITERATIONS", 0)
    z12 = build_group("Z/12")
    col = Coloring.random(z12, 3, 4)
    colors = SplitMix64(derive(4, 0xC0105))
    assert col.color_of.tolist() == [colors.randrange(3) for _ in range(12)]
    samples = 22000
    out = monochromatic_tuple_density(col, 3, samples=samples, seed=9)
    for j, entry in enumerate(out["per_color"]):
        mask = col.color_class(j).mask
        stream = SplitMix64(derive(9, 0xC1B, j))
        hits = sum(
            all(mask[v] for v in _subproducts(z12.mul, [stream.randrange(12) for _ in range(3)]))
            for _ in range(samples)
        )
        assert entry["density"] == hits / samples


def _inside_from_scratch(group, mask, tup):
    # each a_F multiplied out on its own, F in binary order, stopping at
    # the first F outside
    n = len(tup)
    return all(
        mask[functools.reduce(group.mul, (tup[i] for i in range(n) if fmask >> i & 1), 0)]
        for fmask in range(1, 1 << n)
    )


@pytest.mark.parametrize("spec", ["perm:(1 2 3 4);(1 2)", "PSL2(5)"])
def test_subproducts_match_products_from_scratch(spec):
    g = fleet_group(spec)
    stream = SplitMix64(derive(11, g.order))
    for n in (3, 4):
        cols = stream.randrange_array(g.order, 40 * n).reshape(-1, n)
        by_arrays = _subproducts(g.mul_arrays, cols.T)
        for row, tup in enumerate(cols.tolist()):
            expect = [functools.reduce(g.mul, (tup[i - 1] for i in f), 0) for f in all_nonempty_subsets(n)]
            assert _subproducts(g.mul, tup) == expect
            assert [int(p[row]) for p in by_arrays] == expect
            # extending a prefix's list gives the same list
            assert _subproducts(g.mul, tup[2:], _subproducts(g.mul, tup[:2])) == expect


@pytest.mark.parametrize("spec, n", [("perm:(1 2 3 4);(1 2)", 4), ("Z/2 x Z/2", 5), ("perm:(1 2 3 4);(1 2)", 24)])
def test_sampled_density_matches_tuples_checked_from_scratch(spec, n, monkeypatch):
    # at n = 24 a tuple has 2^24 - 1 subproducts, but each sampled tuple
    # leaves at an early position with one outside its class
    monkeypatch.setattr(ramsey, "MAX_EXACT_ITERATIONS", 0)
    g = build_group(spec)
    col = Coloring.random(g, 2, 3)
    samples = 3000
    started = time.perf_counter()
    out, peak = traced_peak(lambda: monochromatic_tuple_density(col, n, samples=samples, seed=4))
    elapsed = time.perf_counter() - started
    assert peak <= 4 << 20, peak
    assert elapsed < 10, elapsed
    for j, entry in enumerate(out["per_color"]):
        mask = col.color_class(j).mask
        stream = SplitMix64(derive(4, 0xC1B, j))
        hits = sum(
            _inside_from_scratch(g, mask, [stream.randrange(g.order) for _ in range(n)]) for _ in range(samples)
        )
        assert entry["density"] == hits / samples


def test_sampled_cip_holds_at_most_a_block_of_subproducts(monkeypatch):
    # one colour: every one of the 6553 tuples in a block of 2^16 draws at
    # n = 10 keeps all 1023 subproducts, 53 MB of int64 at once unless the
    # survivors go on in chunks of PRODUCT_BLOCK subproducts (about 1.9 MB
    # traced with chunks of 2^16: the block's rows so far and one chunk's
    # stack; 23 MB with chunks of 2^20, 108 MB without)
    s4 = fleet_group("perm:(1 2 3 4);(1 2)")
    col = Coloring(s4, np.zeros(s4.order, dtype=np.int64), 1)
    samples = (1 << 16) // 10
    monkeypatch.setattr(ramsey, "MAX_EXACT_ITERATIONS", 0)
    out, peak = traced_peak(lambda: monochromatic_tuple_density(col, 10, samples=samples, seed=2))
    assert out["per_color"] == [{"color": 0, "density": 1.0, "stderr": 0.0, "samples": samples, "exact": False}]
    assert peak <= 32 << 20, peak


def test_cip_sampling_close_to_exact(monkeypatch):
    z12 = build_group("Z/12")
    col_seed = 13
    exact = cip_density_experiment(z12, 2, 2, trials=1, seed=col_seed)
    monkeypatch.setattr(ramsey, "MAX_EXACT_ITERATIONS", 10)
    sampled = cip_density_experiment(z12, 2, 2, trials=1, seed=col_seed, samples=20000)
    for e_trial, s_trial in zip(exact["per_trial"], sampled["per_trial"]):
        for e_color, s_color in zip(e_trial["per_color"], s_trial["per_color"]):
            if not s_color["exact"] and s_color.get("stderr", 0) > 0:
                diff = abs(e_color["density"] - s_color["density"])
                assert diff <= 3 * s_color["stderr"] + 1e-9
