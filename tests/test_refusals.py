"""Fail-fast refusals and in-limit inputs, end to end.

Each row runs the CLI in a fresh interpreter, so the time bound covers
interpreter start and import.  An input past a documented limit must exit
with its code and a stderr line starting with its prefix within the bound,
before any work that grows with the refused size.  An input inside the
limits must exit 0 within its bound.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from grplab.groups import Cyclic, DirectProduct, build_group, parse_group_spec

from conftest import _dihedral_table

SRC = str(Path(__file__).resolve().parent.parent / "src")
BUDGET = "grplab: budget exceeded: "

COLORING_FILE = 'grplab: a coloring file must hold {"k": <int>, "colors": [<int in 0..k-1>, ...]}'

# argv ({table} is a CSV of S3 x Z/200, {no_keys}, {bare_list}, {fraction},
# {nested} and {past_int64} the coloring files of ``BAD_COLORINGS``, {growth}
# and {negative_threads} the config files of ``CONFIGS``), exit code, stderr
# prefix, seconds
REFUSALS = [
    (["group", "--group", "perm:(1 2000000)"], 3, BUDGET + "permutation degree 2000000 too large to index", 5),
    (["group", "--group", "perm:(1 20000000)"], 3, BUDGET + "permutation degree 20000000 too large to index", 5),
    (["group", "--group", "perm:(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)"], 3, BUDGET + "permutation degree 16", 5),
    # S15, of order 15!, stops one generator past the cap
    (
        ["group", "--group", "perm:(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);(1 2)"],
        3,
        BUDGET + "permutation closure exceeded cap 200000",
        5,
    ),
    (["group", "--group", "PSL2(100000000000031)"], 3, BUDGET + "group order 5000000000004650", 5),
    (["group", "--group", "PSL2(2305843009213693951)"], 3, BUDGET + "group order 6129982163463555", 5),
    # not a prime power, but the order alone is past the cap
    (["group", "--group", "PSL2(1000000)"], 3, BUDGET + "group order 999999999999000000 exceeds cap", 5),
    (["group", "--group", "Z/300000"], 3, BUDGET + "group order 300000 exceeds cap 200000", 5),
    (["quasirandom", "--group", "table:{table}"], 3, BUDGET + "600 conjugacy classes exceed cap 300", 10),
    (["mixing", "--group", "Z/4", "--n", "20", "--set-all", "explicit:0"], 3, BUDGET, 5),
    # a random coloring refuses k < 1 before any draw
    (["schur", "--group", "Z/5", "--search", "--k", "0"], 1, "grplab: a coloring needs k >= 1 colors, got 0", 5),
    (["cip", "--group", "Z/5", "--k", "0", "--n", "2"], 1, "grplab: a coloring needs k >= 1 colors, got 0", 5),
    (["schur", "--group", "Z/5", "--coloring", "random:0,3"], 1, "grplab: a coloring needs k >= 1 colors, got 0", 5),
    (
        ["hindman", "--group", "Z/5", "--coloring", "random:-2,3", "--n", "2"],
        1,
        "grplab: a coloring needs k >= 1 colors, got -2",
        5,
    ),
    (["schur", "--group", "Z/5", "--coloring", "{no_keys}"], 1, COLORING_FILE, 5),
    (["schur", "--group", "Z/5", "--coloring", "{bare_list}"], 1, COLORING_FILE, 5),
    (["schur", "--group", "Z/5", "--coloring", "{fraction}"], 1, COLORING_FILE, 5),
    # nested past the JSON parser's recursion limit
    (["schur", "--group", "Z/5", "--coloring", "{nested}"], 1, COLORING_FILE, 5),
    (["hindman", "--group", "Z/5", "--coloring", "{nested}", "--n", "2"], 1, COLORING_FILE, 5),
    # k and a colour past int64
    (["schur", "--group", "Z/5", "--coloring", "{past_int64}"], 1, COLORING_FILE, 5),
    (["hindman", "--group", "Z/5", "--coloring", "{past_int64}", "--n", "2"], 1, COLORING_FILE, 5),
    # eps is parsed once, and a zero denominator is a malformed eps
    (
        ["regular", "--group", "Z/5", "--sets", "explicit:1", "explicit:1", "explicit:1", "--eps", "1/0"],
        1,
        "grplab: epsilon must be in (0, 1], got 1/0",
        5,
    ),
    (["rich", "--group", "Z/5", "--set", "explicit:1", "--eps", "1/0"], 1, "grplab: epsilon must be in (0, 1], got 1/0", 5),
    # counts below 0 are refused; 0 keeps its meaning
    (["cip", "--group", "Z/5", "--k", "2", "--n", "2", "--samples", "-1"], 1, "grplab: samples must be >= 0, got -1", 5),
    # Z/5 at n = 5 is sampled, and a sampled density needs a sample
    (
        ["cip", "--group", "Z/5", "--k", "2", "--n", "5", "--samples", "0"],
        1,
        "grplab: a sampled density needs samples >= 1, got 0",
        5,
    ),
    (
        [
            "regular",
            "--group",
            "Z/5",
            "--sets",
            "explicit:1",
            "explicit:1",
            "explicit:1",
            "--eps",
            "1/2",
            "--mode",
            "sampled",
            "--trials",
            "-3",
        ],
        1,
        "grplab: trials must be >= 0, got -3",
        5,
    ),
    (
        ["rich", "--group", "Z/5", "--set", "explicit:1", "--eps", "1/2", "--mode", "sampled", "--trials", "-3"],
        1,
        "grplab: trials must be >= 0, got -3",
        5,
    ),
    (
        ["hindman", "--group", "Z/5", "--coloring", "random:2,1", "--n", "2", "--budget", "-1"],
        1,
        "grplab: budget must be >= 0, got -1",
        5,
    ),
    (["schur", "--group", "Z/5", "--search", "--iterations", "-1"], 1, "grplab: iterations must be >= 0, got -1", 5),
    (["schur", "--group", "Z/5", "--search", "--restarts", "-5"], 1, "grplab: restarts must be >= 0, got -5", 5),
    (
        ["count", "--group", "Z/5", "--sets", "interval:0,2", "interval:0,2", "interval:0,2", "--equation", "xyz",
         "--threads", "-4"],
        1,
        "grplab: threads must be >= 0, got -4",
        5,
    ),
    (["sweep", "--config", "{growth}", "--threads", "-4"], 1, "grplab: threads must be >= 0, got -4", 5),
    (["sweep", "--config", "{negative_threads}"], 1, "grplab: threads must be >= 0, got -2", 5),
    (["stats", "--group", "Z/5", "--set", "interval:0,2", "--config", "{negative_threads}"], 1,
     "grplab: threads must be >= 0, got -2", 5),
]

# {growth} is a valid recipe config, {negative_threads} one with threads = -2
CONFIGS = {
    "growth": 'recipe = "growth-profile"\ngroups = ["Z/12"]\nsets = ["interval:0,3"]\n',
    "negative_threads": 'recipe = "growth-profile"\nthreads = -2\n',
}

BAD_COLORINGS = {
    "no_keys": "{}",
    "bare_list": "[1,2]",
    "fraction": '{"k": 2, "colors": [0, 1, 1.5, 0, 1]}',
    "nested": "[" * 200000,
    "past_int64": '{"k": %d, "colors": [%d, 0, 0, 0, 0]}' % (10**29, 10**25),
}


# argv ({dihedral} is a CSV of D_597, with 300 classes: the class cap), seconds,
# and a fragment the report must hold (None: any report)
IN_LIMITS = [
    (["group", "--group", "Z/200000", "--classes"], 10, None),
    (["group", "--group", "PSL2(73)", "--classes"], 10, None),
    # A9, order 181440, close to the order cap: the largest index and images
    (["group", "--group", "perm:(1 2 3 4 5 6 7 8 9);(1 2 3)", "--classes"], 10, None),
    (["quasirandom", "--group", "table:{dihedral}"], 10, None),
    # 177^4 tuples, just inside the mixing budget of 10^9
    (["mixing", "--group", "Z/177", "--n", "4", "--set-all", "random:0.7,1"], 10, None),
    # 660^3 tuples of the full PSL2(11), inside the budget: 660 prefixes of one pair count each
    (["mixing", "--group", "PSL2(11)", "--n", "3", "--set-all", "random:1,1"], 10, '"count":287496000'),
    # 31622^2 pairs, the largest mixing:2 inside the budget: one convolution
    (["mixing", "--group", "Z/31622", "--n", "2", "--set-all", "random:1,1"], 5, None),
    # 10^10 pairs of a dense set in the largest cyclic group: one convolution
    (["count", "--group", "Z/200000", "--sets", "random:0.5,1", "--equation", "ap3"], 5, '"count":4924907515'),
    # a sum-free interval of 66666 elements: 4.4*10^9 pairs, none inside
    (["stats", "--group", "Z/200000", "--set", "interval:66668,66666", "--m-max", "2"], 5, '"product_free":true'),
    # a gap length is cut at the order of its step, and the dimensions are
    # summed as product sets: ten elements, and the whole group by one convolution
    (["stats", "--group", "Z/10", "--set", "gap:0;1,1000000"], 2, '"card":10,'),
    (["stats", "--group", "Z/10", "--set", "gap:0;1,100000000"], 5, '"card":10,'),
    (["stats", "--group", "Z/200000", "--set", "gap:0;1,200000;1,200000", "--m-max", "1"], 5, '"card":200000,'),
    # the growth walk stops at G = S^2; the rest of the profile repeats it
    (["stats", "--group", "Z/10", "--set", "interval:0,5", "--m-max", "1000000"], 10, '"card":5,'),
    # each greedy step and each Schur step scores about 10^10 pairs of a
    # colour class: convolutions, not scans
    (["hindman", "--group", "Z/200000", "--coloring", "random:2,1", "--n", "3"], 5, '"elements":[0,0,0]'),
    (["schur", "--group", "Z/200000", "--search", "--k", "2", "--iterations", "1", "--restarts", "1"], 5, None),
    # three 14-element sets, the exact cap, with 1768, 1383 and 812 distinct
    # S S^-1 S values: about 2*10^9 triples
    (
        [
            "regular",
            "--group",
            "PSL2(5)",
            "--eps",
            "1/2",
            "--sets",
            "explicit:0,4,5,10,12,15,28,32,35,37,43,44,47,55",
            "explicit:7,9,10,11,12,16,23,26,43,44,49,52,53,56",
            "explicit:1,6,15,17,22,27,31,35,41,48,49,50,56,57",
        ],
        15,
        None,
    ),
]


@pytest.fixture(scope="module")
def s3_z200_table(tmp_path_factory):
    # nonabelian with 3 * 200 = 600 conjugacy classes
    g = build_group(DirectProduct((parse_group_spec("perm:(1 2 3);(1 2)"), Cyclic(200))))
    path = tmp_path_factory.mktemp("refusals") / "s3_z200.csv"
    np.savetxt(path, g.table, fmt="%d", delimiter=",")
    return path


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in BAD_COLORINGS.items():
        (folder / f"{name}.json").write_text(text)
    for name, text in CONFIGS.items():
        (folder / f"{name}.cfg").write_text(text)
    return {
        **{name: str(folder / f"{name}.json") for name in BAD_COLORINGS},
        **{name: str(folder / f"{name}.cfg") for name in CONFIGS},
    }


@pytest.fixture(scope="module")
def d597_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("in_limits") / "d597.csv"
    np.savetxt(path, _dihedral_table(597), fmt="%d", delimiter=",")
    return path


def _run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "grplab.cli", *argv], capture_output=True, text=True, env=env, timeout=30
    )
    return done, time.monotonic() - start


@pytest.mark.parametrize("argv, code, prefix, seconds", REFUSALS, ids=[" ".join(row[0]) for row in REFUSALS])
def test_refusal_is_fast(argv, code, prefix, seconds, s3_z200_table, input_files):
    done, elapsed = _run_cli([arg.format(table=s3_z200_table, **input_files) for arg in argv])
    assert (done.returncode, done.stdout) == (code, ""), done.stderr
    assert done.stderr.startswith(prefix), done.stderr
    assert elapsed < seconds, f"took {elapsed:.2f} s, allowed {seconds} s"


@pytest.mark.parametrize("argv, seconds, fragment", IN_LIMITS, ids=[" ".join(row[0]) for row in IN_LIMITS])
def test_input_inside_the_limits_finishes_in_time(argv, seconds, fragment, d597_table):
    done, elapsed = _run_cli([arg.format(dihedral=d597_table) for arg in argv])
    assert done.returncode == 0, done.stderr
    assert fragment is None or fragment in done.stdout, done.stdout
    assert elapsed < seconds, f"took {elapsed:.2f} s, allowed {seconds} s"
