"""Tests of the benchmark itself: exact trace counts and the output checks.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced on the default seed (about
two minutes on a 2-core machine).  The counts below follow from the code at
the commit that introduced the benchmark; a change that moves one of them
has changed which path runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import checks
import run
import tracing
import workloads

SPECTRAL = [name for name in tracing.metric_names() if name.startswith("spectral.")]


@pytest.fixture(scope="module")
def traced():
    pinned = run.pinned_digests(run.DEFAULT_SEED)
    return {w: run.run_workload(w, run.DEFAULT_SEED, 0, True, pinned) for w in workloads.WORKLOADS}


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_every_workload_is_correct_and_reports_every_layer_metric(traced):
    for workload, result in traced.items():
        assert result["correct"], (workload, result["errors"])
        assert result["failed"] == 0 and result["attempted"] == 2 * len(workloads.jobs(workload, 0))
        assert sorted(result["metrics"]) == sorted(tracing.metric_names())


def test_no_cayley_table_is_built_above_the_table_cap(traced):
    for workload in ("kernel-path", "abelian-fft"):
        assert values(traced[workload])["groups.table_builds"] == 0


def test_only_the_abelian_workload_uses_the_fft(traced):
    for workload, result in traced.items():
        fft_calls = values(result)["counting.fft_calls"]
        assert (fft_calls > 0) == (workload == "abelian-fft"), workload


def test_the_spectral_layer_runs_only_on_the_table_path(traced):
    for workload, result in traced.items():
        spectral = {name: values(result)[name] for name in SPECTRAL}
        if workload == "table-path":
            assert spectral["spectral.degrees_calls"] > 0
        else:
            assert all(v == 0 for v in spectral.values()), (workload, spectral)


def test_quasirandom_computes_the_degrees_twice(tmp_path):
    # the CLI calls character_degrees directly and again inside
    # quasirandomness_degree
    job = next(j for j in workloads.jobs("table-path", run.DEFAULT_SEED) if j.name.startswith("quasirandom"))
    runner = run.Runner([job], tmp_path, {}, time.monotonic() + 120)
    (result,) = runner.run_pass(True)
    assert result.error is None
    layers = tracing.finish(result.layers)
    assert layers["spectral.degrees_calls"] == 2
    assert layers["spectral.abelianization_calls"] == 2


def test_counts_repeat_exactly(traced):
    again = run.run_workload("kernel-path", run.DEFAULT_SEED, 0, True, {})
    for name, metric in traced["kernel-path"]["metrics"].items():
        if metric["unit"] == "count":
            assert again["metrics"][name]["value"] == metric["value"], name


def test_checks_reject_a_wrong_count():
    job = next(j for j in workloads.jobs("table-path", 3) if j.name.startswith("ap3"))
    out = json.loads(_grplab(job.argv))
    job.check(out)
    for key, delta in (("count", 1), ("degenerate", -1)):
        bad = dict(out, **{key: out[key] + delta})
        with pytest.raises(checks.CheckFailed):
            job.check(bad)


def test_checks_reject_a_wrong_witness():
    job = next(j for j in workloads.jobs("kernel-path", 3) if j.name.startswith("hindman"))
    out = json.loads(_grplab(job.argv))
    job.check(out)
    bad = dict(out, color=(out["color"] + 1) % 4)
    with pytest.raises(checks.CheckFailed):
        job.check(bad)


def _grplab(argv) -> str:
    code = "import sys; sys.path.insert(0, sys.argv[1]); from grplab.cli import main; sys.exit(main(sys.argv[2:]))"
    done = subprocess.run([sys.executable, "-c", code, str(run.ROOT / "src"), *argv],
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout
