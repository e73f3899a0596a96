"""Every blocked "all x times all y" scan against a brute-force oracle, with
blocks small enough that each scan runs in several blocks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from grplab import groups, ramsey
from grplab.counting import (
    FiberFunction,
    _ap3_fast,
    _product_counts,
    count_ap3,
    count_fiber_equation,
    count_power_equation,
    count_xy_eq_z,
)
from grplab.errors import NotAGroup
from grplab.groups import _pair_blocks, _validate_identity_and_inverses, build_group, conjugacy_classes
from grplab.pointimage import PointImageGroup
from grplab.tables import TableGroup, _require_associative
from grplab.ramsey import Coloring
from grplab.sets import GroupSubset, is_product_free, make_set, product_set

from conftest import FLEET_SPECS, traced_peak

# 5 x 5 pairs come in blocks of 2, 2 and 1 rows
SMALL_BLOCK = 14


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(groups, "PRODUCT_BLOCK", SMALL_BLOCK)


def test_pair_blocks_end_with_a_partial_block(small_blocks):
    left, right = np.arange(5), np.arange(10, 15)
    blocks = list(_pair_blocks(np.add, left, right))
    assert [b.shape for b in blocks] == [(2, 5), (2, 5), (1, 5)]
    assert np.array_equal(np.concatenate(blocks), left[:, None] + right[None, :])
    # one row per block when a single row exceeds the block size
    assert [b.shape for b in _pair_blocks(np.add, left, np.arange(20))] == [(1, 20)] * 5
    assert list(_pair_blocks(np.add, left, right[:0])) == []
    assert list(_pair_blocks(np.add, left[:0], right)) == []


def _subset(g, indices):
    return GroupSubset.from_indices(g, [i for i in indices if i < g.order])


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_every_pair_scan_matches_its_oracle_in_small_blocks(spec, small_blocks):
    g = build_group(spec)  # a fresh group: the table is built in small blocks
    n = g.order
    idx = np.arange(n)
    table = g.table
    assert np.array_equal(table, g._mul_kernel(idx[:, None], idx[None, :]))
    _require_associative(g)

    def mul(x, y):
        return int(table[x, y])

    a = _subset(g, [1, 2, 3, 5, 7])
    b = _subset(g, [0, 2, 4, 6, 9])
    c = _subset(g, [1, 3, 4, 8, 11])
    A, B, C = (set(s.to_index_list()) for s in (a, b, c))

    xyz = sum(mul(x, y) in C for x in A for y in B)
    assert count_xy_eq_z(a, b, c, "cayley").count == xyz

    ap3 = sum(mul(x, y) in A and mul(mul(x, y), y) in A for x in A for y in range(n))
    assert count_ap3(a).count == ap3

    powers = [[g.pow(x, e) for x in sorted(A)] for e in (2, 3, 5)]
    power = sum(mul(x, y) == z for x in powers[0] for y in powers[1] for z in powers[2])
    assert count_power_equation(a, 2, 3, 5).count == power

    v1 = a.to_index_list()
    v2 = [int(g.inverse_table[x]) for x in reversed(v1)]
    v3 = [mul(x, y) for x, y in zip(v1, v2)]
    fibers = [FiberFunction.from_values(a, v) for v in (v1, v2, v3)]
    fiber = sum(mul(x, y) == z for x in v1 for y in v2 for z in v3)
    assert count_fiber_equation(*fibers).count == fiber

    assert set(product_set(a, b).to_index_list()) == {mul(x, y) for x in A for y in B}
    for s in (a, b, c, _subset(g, [n - 1])):
        S = set(s.to_index_list())
        assert is_product_free(s) == (not any(mul(x, y) in S for x in S for y in S))

    gens = [x for x in (1, n - 1) if x < n]
    closure = {0}
    while True:
        grown = closure | {mul(x, y) for x in closure for y in gens}
        if grown == closure:
            break
        closure = grown
    spec_text = "subgroup:" + ",".join(str(x) for x in gens)
    assert set(make_set(g, spec_text).to_index_list()) == closure


@pytest.mark.parametrize("spec", FLEET_SPECS)
def test_product_counts_agree_on_every_engine_in_small_blocks(spec, small_blocks):
    g = build_group(spec)
    n = g.order
    sides = [
        np.random.default_rng(n).integers(0, n, 7),  # repeats likely
        np.array([n - 1, n - 1, 0, n - 1], dtype=np.int64),
        np.arange(n),
        np.array([], dtype=np.int64),
    ]
    engines = ["brute", "cayley"] + ["fft"] * (g.cyclic_moduli is not None)
    for left in sides:
        for right in sides:
            brute, *others = (_product_counts(g, left, right, engine) for engine in engines)
            assert brute.shape == (n,) and brute.dtype == np.int64
            assert int(brute.sum()) == len(left) * len(right)
            for counts in others:
                assert counts.dtype == np.int64 and np.array_equal(counts, brute), (left, right)


def test_light_test_rejects_a_loop_in_small_blocks(small_blocks):
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup, match="associativity"):
        _require_associative(TableGroup(np.asarray(loop, dtype=np.int32), "loop"))


def _kernel_block_peak(spec):
    """Traced peak bytes of a full block of PRODUCT_BLOCK products straight
    through the kernel: the product array (512 KB at 2^16) plus the
    kernel's temporaries."""
    g = build_group(spec)
    side = math.isqrt(groups.PRODUCT_BLOCK)
    assert side * side == groups.PRODUCT_BLOCK
    rng = np.random.default_rng(0)
    left, right = rng.integers(0, g.order, side), rng.integers(0, g.order, side)
    block, peak = traced_peak(lambda: next(_pair_blocks(g._mul_kernel, left, right)))
    assert block.shape == (side, side)
    return peak


@pytest.mark.parametrize(
    "spec", ["perm:(1 2 3 4 5 6 7);(1 2)", "PSL2(29)", "perm:(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)", "PSL2(73)"]
)
def test_one_kernel_pair_block_stays_within_its_memory_budget(spec):
    # 0.63-0.65 MB at 2^16 (numpy 2.4): the 512 KB product, read in place
    # from its slots, and one byte-wide image block at a time
    assert _kernel_block_peak(spec) < 3 * 2**20


@pytest.mark.parametrize("spec", ["Z/2 x Z/2 x Z/50000", "Z/400 x Z/500", "Z/200000"])
def test_one_cyclic_pair_block_stays_within_its_memory_budget(spec):
    # the product, one carry mask and one correction: no per-digit int64
    # pair; 1.13 MB at 2^16
    assert _kernel_block_peak(spec) < 2 * 2**20


# results must not depend on the block size: one product per block, blocks
# that divide no order here, the default and the size before it
BLOCK_SIZES = [1, 7, 1 << 16, 1 << 20]


def _s4_table_file(tmp_path):
    s4 = build_group("perm:(1 2 3 4);(1 2)")
    path = tmp_path / "s4.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in s4.table.tolist()) + "\n")
    return f"table:{path}"


def _results_in_blocks(spec):
    """Everything a build and the blocked scans give on ``spec``, in order:
    the inverse table and the point images from the build (which runs the
    blocked check), the product counts and ap3 through the kernel, the
    Cayley table, the conjugacy classes, one Schur step and a sampled
    monochromatic density."""
    g = build_group(spec)
    n = g.order
    rng = np.random.default_rng(n)
    left, right = rng.integers(0, n, 9), rng.integers(0, n, 11)
    a = GroupSubset.from_indices(g, rng.integers(0, n, max(2, n // 3)).tolist())
    coloring = Coloring.random(g, 3, 5)
    colors = np.array(coloring.color_of)
    counts = [ramsey._schur_count_of_mask(g, colors == j) for j in range(3)]
    return [
        g.inverse_table.copy(),
        getattr(g, "images", None),
        _product_counts(g, left, right, "brute"),
        _product_counts(g, left, right, "cayley"),
        _product_counts(g, a.indices, a.indices),
        _ap3_fast(g, a),
        g.table.copy(),
        conjugacy_classes(g),
        ramsey._best_schur_move(g, colors, counts, 3),
        ramsey.monochromatic_tuple_density(coloring, 3, samples=40, seed=1),
    ]


@pytest.mark.parametrize("spec", ["PSL2(7)", "perm:(1 2 3 4 5);(1 2)", "Z/6 x Z/4", "table"])
def test_results_do_not_depend_on_the_block_size(spec, monkeypatch, tmp_path):
    if spec == "table":
        spec = _s4_table_file(tmp_path)
    monkeypatch.setattr(ramsey, "MAX_EXACT_ITERATIONS", 0)  # the density samples
    runs = []
    for block in BLOCK_SIZES:
        monkeypatch.setattr(groups, "PRODUCT_BLOCK", block)
        monkeypatch.setattr(ramsey, "PRODUCT_BLOCK", block)  # bound at import
        runs.append(_results_in_blocks(spec))
    for block, run in zip(BLOCK_SIZES[1:], runs[1:]):
        for k, (want, got) in enumerate(zip(runs[0], run)):
            same = np.array_equal(want, got) if isinstance(want, np.ndarray) else want == got
            assert same, (block, k)


def test_a_psl2_build_in_small_blocks_matches_the_default(monkeypatch):
    # the point-image family reads groups.PRODUCT_BLOCK as it builds, so the
    # inverse table and the build check look elements up in blocks this small
    want = build_group("PSL2(7)")
    sizes = []
    lookup = PointImageGroup._lookup

    def recorded(group, base_images):
        found = lookup(group, base_images)
        sizes.append(found.size)
        return found

    monkeypatch.setattr(groups, "PRODUCT_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(PointImageGroup, "_lookup", recorded)
    got = build_group("PSL2(7)")
    assert 0 < max(sizes) <= SMALL_BLOCK
    assert np.array_equal(got.images, want.images)
    assert np.array_equal(got.inverse_table, want.inverse_table)
    idx = np.arange(got.order)
    assert np.array_equal(got._mul_kernel(idx[:, None], idx[None, :]), want.table)


def test_the_build_check_holds_one_block_at_a_time():
    # 10.7 MB traced with n-sized operands, 3.5 MB in blocks of 2^16
    g = build_group("Z/2 x Z/2 x Z/50000")
    _, peak = traced_peak(lambda: _validate_identity_and_inverses(g))
    assert peak < 5 * 2**20, peak


def _broken(g, bad):
    """``g`` with its kernel's product of the index pair ``bad`` made 1."""
    kernel = g._mul_kernel

    def mul(a, b):
        out = kernel(a, b)
        return np.where((np.asarray(a) == bad[0]) & (np.asarray(b) == bad[1]), 1, out)

    g._mul_kernel = mul
    return g


@pytest.mark.parametrize(
    "spec, block", [("Z/50", 7), ("PSL2(13)", 7), ("perm:(1 2 3 4 5);(1 2)", 7), ("Z/2 x Z/2 x Z/50000", 1 << 16)]
)
def test_the_blocked_build_check_refuses_each_fault(spec, block, monkeypatch):
    monkeypatch.setattr(groups, "PRODUCT_BLOCK", block)
    last = build_group(spec).order - 1  # in the last block
    with pytest.raises(NotAGroup, match="^identity fails on the left$"):
        _validate_identity_and_inverses(_broken(build_group(spec), (0, last)))
    with pytest.raises(NotAGroup, match="^identity fails on the right$"):
        _validate_identity_and_inverses(_broken(build_group(spec), (last, 0)))
    for i in (1, last):
        g = build_group(spec)
        g.inverse_table[i] = 0  # only the identity inverts to 0
        with pytest.raises(NotAGroup, match="^inverse table is wrong$"):
            _validate_identity_and_inverses(g)


@pytest.mark.parametrize(
    "spec, block", [("Z/50", 7), ("PSL2(13)", 7), ("Z/6 x Z/4", 5), ("Z/2 x Z/2 x Z/50000", 1 << 16)]
)
def test_the_one_sweep_build_check_keeps_the_order_of_its_messages(spec, block, monkeypatch):
    # faults of two checks in the first and the last block: the check named
    # first in the docstring wins, whichever block holds its fault
    monkeypatch.setattr(groups, "PRODUCT_BLOCK", block)
    last = build_group(spec).order - 1

    def bad_inverse(g, i=1):
        g.inverse_table[i] = 0  # only the identity inverts to 0
        return g

    cases = [
        (lambda g: _broken(bad_inverse(g), (last, 0)), "identity fails on the right"),
        (lambda g: _broken(bad_inverse(g, last), (2, 0)), "identity fails on the right"),
        (lambda g: _broken(bad_inverse(g), (0, last)), "identity fails on the left"),
        (lambda g: _broken(_broken(g, (2, 0)), (0, last)), "identity fails on the left"),
        (lambda g: _broken(_broken(bad_inverse(g), (2, 0)), (0, last)), "identity fails on the left"),
    ]
    for fault, message in cases:
        with pytest.raises(NotAGroup, match=f"^{message}$"):
            _validate_identity_and_inverses(fault(build_group(spec)))
