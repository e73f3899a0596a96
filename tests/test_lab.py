from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grplab.cli import main
from grplab.errors import ConfigInvalid, GridTooLarge, MalformedSpec
from grplab.lab import ExperimentConfig, parse_config_text, run_recipe, sweep
from grplab.reports import canonical_json, rows_to_csv

CONFIG_TEXT = """
# growth of an interval under symmetrized powers
recipe = "growth-profile"
groups = ["Z/50"]
sets = ["interval:0,4"]
seed = 7
[params]
m_max = 3
"""


def test_parse_config_round_trip():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.recipe == "growth-profile"
    assert cfg.groups == ["Z/50"]
    assert cfg.params == {"m_max": 3}
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigInvalid):
        parse_config_text("recipe = \"growth-profile\"\nbogus_key = 1")
    with pytest.raises(ConfigInvalid):
        parse_config_text("recipe = \"no-such-recipe\"")
    with pytest.raises(ConfigInvalid):
        parse_config_text("seed = 1")  # missing recipe
    with pytest.raises(ConfigInvalid):
        parse_config_text("recipe = \"schur\"\nnot json = value")


def test_run_recipe_growth_profile():
    cfg = parse_config_text(CONFIG_TEXT)
    report = run_recipe(cfg)
    assert report.recipe == "growth-profile"
    assert len(report.instances) == 1
    inst = report.instances[0]
    assert inst["card"] == 4
    assert inst["profile"][0].numerator == 7  # symmetrize has 2*4-1 elements here


@pytest.mark.parametrize(
    "recipe, sets, params",
    [
        ("regular-position", ["explicit:1", "explicit:1", "explicit:1"], {"eps": "1/0"}),
        ("product-rich", ["explicit:1"], {"eps": "1/0"}),
        ("regular-position", ["explicit:1", "explicit:1", "explicit:1"], {"eps": "1/2", "mode": "sampled", "trials": -3}),
        ("product-rich", ["explicit:1"], {"eps": "1/2", "mode": "sampled", "trials": -3}),
        ("schur", [], {"mode": "search", "iterations": -1}),
        ("hindman", [], {"budget": -1}),
    ],
)
def test_recipes_share_the_library_refusals(recipe, sets, params):
    cfg = ExperimentConfig.from_dict({"recipe": recipe, "groups": ["Z/5"], "sets": sets, "params": params})
    with pytest.raises(MalformedSpec):
        run_recipe(cfg)


def test_run_recipe_embeds_config_and_seed():
    cfg = parse_config_text(CONFIG_TEXT)
    report = run_recipe(cfg)
    data = json.loads(report.to_json())
    assert data["config"]["groups"] == ["Z/50"]
    assert data["seed"] == 7
    assert data["elapsed_ms"] == 0  # timing off by default for determinism


def test_reports_are_byte_identical():
    cfg = parse_config_text(CONFIG_TEXT)
    assert run_recipe(cfg).to_json() == run_recipe(cfg).to_json()


def test_mixing_trend_recipe_small():
    cfg = ExperimentConfig(
        recipe="mixing-trend", params={"qs": [5], "density": 0.3, "seeds": 2}, seed=3
    )
    report = run_recipe(cfg)
    assert len(report.instances) == 2
    assert report.aggregates["per_group"]["PSL2(5)"]["quasirandomness_degree"] == 3


def test_roth_recipe_closed_form_ratio():
    cfg = ExperimentConfig(
        recipe="roth-small-doubling",
        groups=["Z/1000"],
        params={"interval_lengths": [20]},
        seed=0,
    )
    report = run_recipe(cfg)
    inst = report.instances[0]
    assert inst["count"] == 200  # ceil(20^2 / 2)
    assert inst["doubling"].numerator == 39


def test_power_recipe():
    cfg = ExperimentConfig(
        recipe="power-equation",
        groups=["Z/5"],
        sets=["explicit:0,1,2"],
        params={"exponents": [1, 1, 2]},
    )
    inst = run_recipe(cfg).instances[0]
    assert inst["count"] == 5
    assert inst["torsion_free"] is True


def test_schur_and_hindman_recipes():
    schur_cfg = ExperimentConfig(
        recipe="schur", groups=["Z/6"], params={"k": 2, "seeds": 2}, seed=5
    )
    rep = run_recipe(schur_cfg)
    assert len(rep.instances) == 2
    search_cfg = ExperimentConfig(
        recipe="schur",
        groups=["Z/5"],
        params={"k": 2, "mode": "search", "iterations": 50, "restarts": 6},
        seed=5,
    )
    rep2 = run_recipe(search_cfg)
    assert rep2.instances[0]["best_max_count"] == 4

    hind_cfg = ExperimentConfig(
        recipe="hindman", groups=["Z/8"], params={"k": 2, "n": 2, "seeds": 3}, seed=5
    )
    rep3 = run_recipe(hind_cfg)
    assert rep3.aggregates["witnesses_found"] == 3


def test_regularity_recipes():
    rich_cfg = ExperimentConfig(
        recipe="product-rich",
        groups=["Z/5"],
        sets=["explicit:2,3"],
        params={"eps": "1"},
    )
    inst = run_recipe(rich_cfg).instances[0]
    assert inst["status"] == "violated"

    reg_cfg = ExperimentConfig(
        recipe="regular-position",
        groups=["Z/4"],
        sets=["explicit:1,3", "explicit:1,3", "explicit:1,3"],
        params={"eps": "1"},
    )
    inst2 = run_recipe(reg_cfg).instances[0]
    assert inst2["status"] == "violated"


# --- sweeps ------------------------------------------------------------------


def test_sweep_single_cell_equals_run_recipe():
    cfg = parse_config_text(CONFIG_TEXT)
    reports, rows = sweep(cfg)
    assert len(reports) == 1
    assert reports[0].to_json() == run_recipe(cfg).to_json()
    assert rows[0]["cell_index"] == 0


def test_sweep_grid_runs_cells_independently():
    text = CONFIG_TEXT + "\n[grid]\n\"params.m_max\" = [2, 3, 4]\n"
    cfg = parse_config_text(text)
    reports, rows = sweep(cfg)
    assert len(reports) == 3
    assert [len(r.instances[0]["profile"]) for r in reports] == [2, 3, 4]
    assert [row["params.m_max"] for row in rows] == [2, 3, 4]
    # per-cell seeds derive from (seed, cell index)
    assert len({r.seed for r in reports}) == 3


def test_sweep_parallel_matches_serial():
    text = CONFIG_TEXT + "\n[grid]\n\"params.m_max\" = [2, 3, 4, 5]\n"
    serial = parse_config_text(text)
    parallel = parse_config_text(text)
    parallel.threads = 3
    ser_reports, ser_rows = sweep(serial)
    par_reports, par_rows = sweep(parallel)
    assert [r.to_json() for r in ser_reports] == [r.to_json() for r in par_reports]
    assert ser_rows == par_rows


def test_sweep_rejects_empty_axis_and_huge_grids():
    cfg = parse_config_text(CONFIG_TEXT + "\n[grid]\n\"params.m_max\" = []\n")
    with pytest.raises(ConfigInvalid):
        sweep(cfg)
    big = parse_config_text(CONFIG_TEXT)
    big.grid = {"params.m_max": list(range(200)), "seed": list(range(200))}
    with pytest.raises(GridTooLarge):
        sweep(big)


def test_csv_rows_stable_columns():
    rows = [{"b": 1, "a": 2}, {"a": 3, "c": 4}]
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "a,b,c"


# --- CLI ----------------------------------------------------------------------


def _run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_group_info(capsys):
    code, out, _ = _run_cli(["group", "--group", "Z/6"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6 and data["abelian"] is True


def test_cli_count_schema(capsys):
    code, out, _ = _run_cli(
        ["count", "--group", "Z/5", "--sets", "explicit:0,1,2", "explicit:0,1,2",
         "explicit:0,1,2", "--equation", "xyz"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    want_keys = {
        "group", "sets", "equation", "count", "degenerate",
        "normalizer_num", "normalizer_den", "ratio", "engine", "elapsed_ms", "seed",
    }
    assert want_keys <= set(data)
    assert data["count"] == 6


def test_cli_count_ap3_and_power(capsys):
    code, out, _ = _run_cli(
        ["count", "--group", "Z/5", "--sets", "explicit:0,1,2", "--equation", "ap3"], capsys
    )
    assert code == 0 and json.loads(out)["count"] == 5
    code, out, _ = _run_cli(
        ["count", "--group", "Z/5", "--sets", "explicit:0,1,2",
         "--equation", "power:1,1,2"],
        capsys,
    )
    assert code == 0 and json.loads(out)["count"] == 5


def test_cli_count_ap3_and_power_fft(capsys):
    spec = ["--group", "Z/2000", "--sets", "random:0.1,5"]
    for equation in ("ap3", "power:2,3,5"):
        code, auto, _ = _run_cli(["count", *spec, "--equation", equation], capsys)
        assert code == 0 and json.loads(auto)["engine"] == "CayleyConvolution"
        code, fft, _ = _run_cli(["count", *spec, "--equation", equation, "--engine", "fft"], capsys)
        assert code == 0
        assert json.loads(fft) == {**json.loads(auto), "engine": "AbelianFFT"}
        code, out, err = _run_cli(
            ["count", "--group", "PSL2(5)", "--sets", "random:0.5,5", "--equation", equation,
             "--engine", "fft"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "grplab: AbelianFFT needs a cyclic product group, not PSL2(5)\n"


@pytest.mark.parametrize("argv", [
    ["count", "--group", "Z/6", "--sets", "explicit:0,2,3", "--equation", "mixing:3"],
    ["mixing", "--group", "Z/6", "--n", "3", "--set-all", "explicit:0,2,3"],
])
def test_cli_mixing_takes_the_count_engines(argv, capsys):
    reports = {}
    for engine in ("auto", "brute", "fft"):
        code, out, _ = _run_cli(argv + ["--engine", engine], capsys)
        assert code == 0
        reports[engine] = json.loads(out)
    assert [r["engine"] for r in reports.values()] == ["CayleyConvolution", "BruteForce", "AbelianFFT"]
    assert len({r["count"] for r in reports.values()}) == 1
    on_psl2 = ["PSL2(5)" if arg == "Z/6" else arg for arg in argv]
    code, out, err = _run_cli(on_psl2 + ["--engine", "fft"], capsys)
    assert (code, out, err) == (1, "", "grplab: AbelianFFT needs a cyclic product group, not PSL2(5)\n")


@pytest.mark.parametrize("argv, n", [
    (["mixing", "--group", "Z/4", "--n", "-3", "--set-all", "explicit:0"], -3),
    (["mixing", "--group", "Z/4", "--n", "1", "--set-all", "explicit:0"], 1),
    (["count", "--group", "Z/4", "--sets", "explicit:0", "--equation", "mixing:-1"], -1),
    (["count", "--group", "Z/4", "--sets", "explicit:0", "--equation", "mixing:0"], 0),
])
def test_cli_refuses_mixing_below_two_before_listing_subsets(argv, n, capsys, monkeypatch):
    import grplab.cli as cli

    def listed(n):
        raise AssertionError(f"listed the 2^{n} - 1 subsets")

    monkeypatch.setattr(cli, "all_nonempty_subsets", listed)
    code, out, err = _run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"grplab: mixing tuples need n >= 2, got {n}\n")


def test_cli_power_on_empty_set_reports_its_engine(capsys):
    argv = ["count", "--group", "Z/2000", "--sets", "explicit:", "--equation", "power:1,1,2"]
    for engine, name in (("brute", "BruteForce"), ("auto", "CayleyConvolution"), ("fft", "AbelianFFT")):
        code, out, _ = _run_cli(argv + ["--engine", engine], capsys)
        assert code == 0
        assert (json.loads(out)["count"], json.loads(out)["engine"]) == (0, name)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_zero_normalizer_prints_a_null_ratio(capsys):
    argv = ["count", "--group", "Z/30", "--sets", "explicit:", "explicit:", "explicit:", "--equation", "xyz"]
    code, out, _ = _run_cli(argv, capsys)
    assert code == 0
    data = json.loads(out, parse_constant=_no_constant)
    assert (data["count"], data["normalizer_num"], data["ratio"]) == (0, 0, None)
    code, out, _ = _run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert next(csv.DictReader(io.StringIO(out)))["ratio"] == ""
    with pytest.raises(ValueError):
        canonical_json({"ratio": float("nan")})


def test_cli_mixing_set_all(capsys):
    code, out, _ = _run_cli(
        ["mixing", "--group", "Z/4", "--n", "3", "--set-all", "explicit:0,2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8 and data["ratio"] == 16.0


def test_cli_quasirandom_schema(capsys):
    code, out, _ = _run_cli(["quasirandom", "--group", "PSL2(5)"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [1, 3, 3, 4, 5]
    assert data["quasirandomness_degree"] == 3
    assert data["abelianization_order"] == 1
    assert data["class_count"] == 5


def test_cli_schur_and_hindman(capsys, tmp_path):
    code, out, _ = _run_cli(
        ["schur", "--group", "Z/6", "--coloring", "random:2,4"], capsys
    )
    assert code == 0
    assert "max_color" in json.loads(out)

    coloring_file = tmp_path / "col.json"
    coloring_file.write_text(json.dumps({"k": 2, "colors": [0, 1, 1, 1, 1]}))
    code, out, _ = _run_cli(
        ["hindman", "--group", "Z/5", "--coloring", str(coloring_file), "--n", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["elements"] == [0, 0]


def test_cli_rich_and_regular(capsys):
    code, out, _ = _run_cli(
        ["rich", "--group", "Z/5", "--set", "explicit:2,3", "--eps", "1"], capsys
    )
    assert code == 0 and json.loads(out)["status"] == "violated"
    code, out, _ = _run_cli(
        ["regular", "--group", "Z/4", "--sets", "explicit:1,3", "explicit:1,3",
         "explicit:1,3", "--eps", "1/2"],
        capsys,
    )
    assert code == 0 and json.loads(out)["status"] == "violated"


def test_cli_cip(capsys):
    code, out, _ = _run_cli(
        ["cip", "--group", "Z/3", "--k", "1", "--n", "2", "--trials", "1"], capsys
    )
    assert code == 0 and json.loads(out)["min_max_density"] == 1.0


def test_cli_sweep_and_formats(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT)
    code, out, _ = _run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)[0]["recipe"] == "growth-profile"
    out_file = tmp_path / "rows.csv"
    code, _, _ = _run_cli(
        ["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert out_file.read_text().startswith("card,cell_index") or "card" in out_file.read_text().splitlines()[0]


def test_cli_exit_codes(capsys, tmp_path):
    # usage: unknown equation, malformed spec, non-prime-power field size
    assert _run_cli(["count", "--group", "Z/5", "--sets", "explicit:0", "--equation", "nope"], capsys)[0] == 1
    assert _run_cli(["group", "--group", "Q/5"], capsys)[0] == 1
    assert _run_cli(["group", "--group", "PSL2(6)"], capsys)[0] == 1
    assert _run_cli(["bogus-subcommand"], capsys)[0] == 1
    # invariant violation: a non-group table
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n0,1")
    assert _run_cli(["group", "--group", f"table:{bad}"], capsys)[0] == 2
    # budget: order cap
    assert _run_cli(["group", "--group", "Z/300000"], capsys)[0] == 3
    # budget: exact regularity cap
    assert _run_cli(
        ["rich", "--group", "Z/40", "--set", "interval:0,30", "--eps", "1/2"], capsys
    )[0] == 3


def test_cli_maps_memory_error_to_budget_exit(capsys, monkeypatch):
    import grplab.cli as cli

    def exhausted(args, started):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "group", cli._COMMANDS["group"]._replace(run=exhausted))
    code, out, err = _run_cli(["group", "--group", "Z/6"], capsys)
    assert code == 3
    assert out == ""
    assert err.strip() == "grplab: budget exceeded: out of memory"


@pytest.mark.parametrize("argv", [
    ["mixing", "--group", "Z/4", "--n", "18", "--set-all", "explicit:0"],
    ["count", "--group", "Z/4", "--sets", "explicit:0", "--equation", "mixing:18"],
    ["count", "--group", "Z/4", "--sets", "explicit:0", "explicit:1", "--equation", "mixing:5"],
])
def test_cli_refuses_mixing_above_four_before_listing_subsets(argv, capsys, monkeypatch):
    import grplab.cli as cli

    def listed(n):
        raise AssertionError(f"listed the 2^{n} - 1 subsets")

    monkeypatch.setattr(cli, "all_nonempty_subsets", listed)
    code, out, err = _run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    n = argv[argv.index("--n") + 1] if "--n" in argv else argv[-1].split(":")[1]
    assert err == f"grplab: budget exceeded: mixing tuples supported for n in 2..4, got {n}\n"


def test_cli_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text('recipe = "schur"\nseed = 99\nformat = "csv"\n[params]\nk = 2\n')
    code, out, _ = _run_cli(
        ["schur", "--group", "Z/6", "--coloring", "random:2,1", "--config", str(cfg)],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0].startswith("coloring,")  # csv from config
    code, out, _ = _run_cli(
        ["schur", "--group", "Z/6", "--coloring", "random:2,1", "--config", str(cfg),
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 99  # seed from config, format overridden


def test_cli_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT)
    cmd = [sys.executable, "-m", "grplab.cli", "sweep", "--config", str(cfg)]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--group", "PSL2(23)", "--classes"],
        ["stats", "--group", "perm:(1 2 3 4 5 6 7);(1 2)", "--set", "explicit:3,17,140,999,2500,4000"],
    ],
)
def test_cli_runs_without_numpy_ma(argv):
    # under numpy 2.4 a plain np.unique imports numpy.ma, about 9 ms a process
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from grplab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        "sys.exit(code)"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["group"] == argv[2]


def _loaded_after(code: str, *argv: str) -> list:
    """The grplab and concurrent modules, and the stdlib modules that only some
    paths use (``dataclasses``, ``csv``, ``statistics``), sorted, loaded after
    running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += (
        "\nimport json, sys\n"
        "watched = ('concurrent', 'grplab', 'dataclasses', 'csv', 'statistics')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in watched)))"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_leaves_out_concurrent_futures():
    # only a threaded sweep imports the thread pool
    assert not [m for m in _loaded_after("import grplab.cli") if m.startswith("concurrent")]


CLI_MODULES = ["grplab"] + [
    f"grplab.{m}" for m in ("cli", "errors", "groups", "gf", "rng", "sets", "counting", "spectral", "reports")
]

RUN_MAIN = (
    "import contextlib, io, sys\n"
    "from grplab.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(sys.argv[1:]) == 0\n"
)

SCHUR_CONFIG = """
recipe = "schur"
groups = ["Z/12"]
[params]
seeds = 1
"""


def test_import_grplab_loads_no_submodule():
    assert _loaded_after("import grplab") == ["grplab"]


def test_cli_import_loads_only_the_core_modules():
    assert _loaded_after("import grplab.cli") == sorted(CLI_MODULES)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["count", "--group", "Z/12", "--sets", "random:0.5,1", "random:0.5,2", "random:0.5,3", "--equation", "xyz"], []),
        (["hindman", "--group", "Z/12", "--coloring", "random:2,1", "--n", "2"], ["grplab.ramsey"]),
        (["rich", "--group", "Z/12", "--set", "explicit:1,2,3", "--eps", "1/2"], ["grplab.regularity"]),
        (["sweep", "--config", "{growth}"], ["grplab.lab"]),
        (["sweep", "--config", "{schur}"], ["grplab.lab", "grplab.ramsey"]),
        (["stats", "--group", "Z/12", "--set", "interval:0,3", "--format", "csv"], ["csv"]),
        (["cip", "--group", "Z/12", "--k", "2", "--n", "2", "--trials", "1"], ["grplab.ramsey", "statistics"]),
    ],
    ids=["count-xyz", "hindman", "rich", "sweep-growth-profile", "sweep-schur", "stats-csv", "cip"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    paths = {"growth": tmp_path / "growth.cfg", "schur": tmp_path / "schur.cfg"}
    paths["growth"].write_text(CONFIG_TEXT)
    paths["schur"].write_text(SCHUR_CONFIG)
    argv = [arg.format(**paths) for arg in argv]
    assert _loaded_after(RUN_MAIN, *argv) == sorted(CLI_MODULES + extra)
