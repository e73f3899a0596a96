"""Experiment recipes, config files, and parameter sweeps.

A config is a small key = value text file with [section] tables (values in
JSON syntax), round-tripping unchanged through ExperimentConfig.  Every
instance a recipe runs derives its own seed from (config seed, indices), so
results do not depend on scheduling and any instance can be re-run alone.
"""

from __future__ import annotations

import json
import time
from itertools import product as iter_product
from typing import Any, Callable, Dict, List, Optional, Tuple

from .counting import count_ap3, count_power_equation, count_xy_eq_z
from .errors import ConfigInvalid, EmptySet, GridTooLarge, require_nonnegative
from .groups import build_group
from .reports import ExperimentReport, PlainRecord
from .rng import derive
from .sets import doubling_constant, make_set, set_statistics
from .spectral import quasirandomness_degree

# the recipes that run ramsey or regularity import it themselves, so a
# config file or a counting recipe never loads them

GRID_CELL_CAP = 10_000


class ExperimentConfig(PlainRecord):
    """One recipe run: a plain class, since the CLI's explicit flags
    overwrite its fields after it is read."""

    _fields = ("recipe", "groups", "sets", "params", "seed", "threads", "format", "timing", "grid")

    def __init__(
        self,
        recipe: str,
        groups: Optional[List[str]] = None,
        sets: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        threads: int = 1,
        format: str = "json",
        timing: bool = False,
        grid: Optional[Dict[str, List[Any]]] = None,
    ) -> None:
        self.recipe = recipe
        self.groups = [] if groups is None else groups
        self.sets = [] if sets is None else sets
        self.params = {} if params is None else params
        self.seed = seed
        self.threads = threads
        self.format = format
        self.timing = timing
        self.grid = {} if grid is None else grid

    def to_dict(self) -> Dict[str, Any]:
        return {
            "recipe": self.recipe,
            "groups": list(self.groups),
            "sets": list(self.sets),
            "params": dict(self.params),
            "seed": self.seed,
            "threads": self.threads,
            "format": self.format,
            "timing": self.timing,
            "grid": {k: list(v) for k, v in self.grid.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigInvalid(f"unknown config keys {sorted(unknown)}")
        if "recipe" not in data:
            raise ConfigInvalid("config needs a recipe")
        cfg = cls(recipe=str(data["recipe"]))
        cfg.groups = [str(g) for g in data.get("groups", [])]
        cfg.sets = [str(s) for s in data.get("sets", [])]
        cfg.params = dict(data.get("params", {}))
        cfg.seed = int(data.get("seed", 0))
        cfg.threads = int(data.get("threads", 1))
        require_nonnegative(threads=cfg.threads)
        cfg.format = str(data.get("format", "json"))
        if cfg.format not in ("json", "csv"):
            raise ConfigInvalid(f"format must be json or csv, got {cfg.format!r}")
        cfg.timing = bool(data.get("timing", False))
        grid = data.get("grid", {})
        if not isinstance(grid, dict) or any(not isinstance(v, list) for v in grid.values()):
            raise ConfigInvalid("grid axes must map names to value lists")
        cfg.grid = {str(k): list(v) for k, v in grid.items()}
        if cfg.recipe not in RECIPES:
            raise ConfigInvalid(f"unknown recipe {cfg.recipe!r}; choose from {RECIPES}")
        return cfg


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the key = value / [section] config format (JSON values)."""
    data: Dict[str, Any] = {}
    section: Dict[str, Any] = data
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = data
            for part in line[1:-1].strip().split("."):
                if not part:
                    raise ConfigInvalid(f"line {lineno}: empty section name")
                section = section.setdefault(part, {})
                if not isinstance(section, dict):
                    raise ConfigInvalid(f"line {lineno}: section collides with a value")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigInvalid(f"line {lineno}: expected key = value")
        key = key.strip()
        if len(key) >= 2 and key[0] == '"' and key[-1] == '"':
            key = key[1:-1]
        try:
            section[key] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"line {lineno}: bad JSON value: {exc}") from None
    return ExperimentConfig.from_dict(data)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _param(cfg: ExperimentConfig, key: str, default: Any = None, required: bool = False) -> Any:
    if key in cfg.params:
        return cfg.params[key]
    if required:
        raise ConfigInvalid(f"recipe {cfg.recipe!r} needs params.{key}")
    return default


# ---------------------------------------------------------------------------
# recipes


def _recipe_mixing_trend(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    from statistics import median  # only this recipe takes a median

    groups = cfg.groups or [f"PSL2({q})" for q in _param(cfg, "qs", [5, 7, 11, 13])]
    density = float(_param(cfg, "density", 0.3))
    seeds = int(_param(cfg, "seeds", 5))
    medians = {}
    for gi, spec in enumerate(groups):
        group = build_group(spec)
        qdeg = quasirandomness_degree(group, seed=derive(cfg.seed, gi, 0xD))
        deviations = []
        for si in range(seeds):
            inst_seed = derive(cfg.seed, gi, si)
            set_specs = [f"random:{density},{derive(inst_seed, t)}" for t in range(3)]
            abc = [make_set(group, s) for s in set_specs]
            rep = count_xy_eq_z(*abc)
            expected = abc[0].card * abc[1].card * abc[2].card / group.order
            deviation = abs(rep.count * group.order / max(1, abc[0].card * abc[1].card * abc[2].card) - 1.0)
            deviations.append(deviation)
            report.instances.append(
                {
                    "group": spec,
                    "order": group.order,
                    "quasirandomness_degree": qdeg,
                    "seed_index": si,
                    "instance_seed": inst_seed,
                    "sets": set_specs,
                    "cards": [s.card for s in abc],
                    "count": rep.count,
                    "expected": expected,
                    "deviation": deviation,
                    "engine": rep.engine,
                }
            )
        medians[spec] = {"median_deviation": median(deviations), "quasirandomness_degree": qdeg}
    report.aggregates["per_group"] = medians


def _recipe_roth(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    groups = cfg.groups or ["Z/10000"]
    set_specs = cfg.sets or [f"interval:0,{m}" for m in _param(cfg, "interval_lengths", [50, 100, 200])]
    for spec in groups:
        group = build_group(spec)
        for sspec in set_specs:
            a = make_set(group, sspec)
            rep = count_ap3(a)
            dbl = doubling_constant(a)
            report.instances.append(
                {
                    "group": spec,
                    "set": sspec,
                    "card": a.card,
                    "count": rep.count,
                    "degenerate": rep.degenerate_count,
                    "ratio_vs_card_sq": rep.ratio,
                    "doubling": dbl,
                }
            )
    ratios = [inst["ratio_vs_card_sq"] for inst in report.instances]
    report.aggregates["min_ratio"] = min(ratios) if ratios else None


def _recipe_power(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    exponents = _param(cfg, "exponents", required=True)
    if len(exponents) != 3:
        raise ConfigInvalid("params.exponents must be [n1, n2, n3]")
    n1, n2, n3 = (int(v) for v in exponents)
    if not cfg.groups or not cfg.sets:
        raise ConfigInvalid("power-equation needs groups and sets")
    for spec in cfg.groups:
        group = build_group(spec)
        for sspec in cfg.sets:
            a = make_set(group, sspec)
            rep = count_power_equation(a, n1, n2, n3)
            report.instances.append(
                {
                    "group": spec,
                    "set": sspec,
                    "card": a.card,
                    "exponents": [n1, n2, n3],
                    "count": rep.count,
                    "degenerate": rep.degenerate_count,
                    "ratio_vs_card_sq": rep.ratio,
                    "torsion_free": rep.extras["torsion_free"],
                }
            )


def _recipe_schur(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    from .ramsey import Coloring, schur_adversarial_search, schur_counts

    if not cfg.groups:
        raise ConfigInvalid("schur needs groups")
    k = int(_param(cfg, "k", 2))
    mode = _param(cfg, "mode", "random")
    for gi, spec in enumerate(cfg.groups):
        group = build_group(spec)
        if mode == "random":
            for si in range(int(_param(cfg, "seeds", 5))):
                coloring_seed = derive(cfg.seed, gi, si)
                coloring = Coloring.random(group, k, coloring_seed)
                rep = schur_counts(coloring)
                report.instances.append(
                    {
                        "group": spec,
                        "k": k,
                        "seed_index": si,
                        "coloring_seed": coloring_seed,
                        "counts": rep.counts(),
                        "max_color": rep.max_color,
                        "max_count": rep.max_count,
                        "max_ratio_vs_order_sq": rep.max_count / group.order**2,
                    }
                )
        elif mode == "search":
            result = schur_adversarial_search(
                group,
                k,
                iterations=int(_param(cfg, "iterations", 200)),
                restarts=int(_param(cfg, "restarts", 10)),
                seed=derive(cfg.seed, gi),
            )
            report.instances.append(
                {
                    "group": spec,
                    "k": k,
                    "mode": "search",
                    "best_max_count": result.max_count,
                    "counts": list(result.counts),
                    "max_ratio_vs_order_sq": result.max_count / group.order**2,
                }
            )
        else:
            raise ConfigInvalid(f"schur mode must be random or search, got {mode!r}")


def _recipe_hindman(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    from .ramsey import Coloring, monochromatic_tuple_search

    if not cfg.groups:
        raise ConfigInvalid("hindman needs groups")
    k = int(_param(cfg, "k", 2))
    n = int(_param(cfg, "n", 3))
    nontrivial = bool(_param(cfg, "nontrivial", False))
    budget = int(_param(cfg, "budget", 10**7))
    found = 0
    for gi, spec in enumerate(cfg.groups):
        group = build_group(spec)
        for si in range(int(_param(cfg, "seeds", 5))):
            coloring_seed = derive(cfg.seed, gi, si)
            coloring = Coloring.random(group, k, coloring_seed)
            result = monochromatic_tuple_search(coloring, n, budget=budget, nontrivial=nontrivial)
            record = {
                "group": spec,
                "k": k,
                "n": n,
                "seed_index": si,
                "coloring_seed": coloring_seed,
                "nontrivial": nontrivial,
            }
            record.update(result.to_dict())
            record["witness_found"] = "elements" in record
            found += int(record["witness_found"])
            report.instances.append(record)
    report.aggregates["witnesses_found"] = found
    report.aggregates["instances"] = len(report.instances)


def _recipe_regular_position(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    from .regularity import _as_fraction, check_regular_position

    if not cfg.groups or len(cfg.sets) != 3:
        raise ConfigInvalid("regular-position needs groups and exactly three sets")
    eps = _as_fraction(_param(cfg, "eps", required=True))
    mode = _param(cfg, "mode", "exact")
    trials = int(_param(cfg, "trials", 500))
    for gi, spec in enumerate(cfg.groups):
        group = build_group(spec)
        abc = [make_set(group, s) for s in cfg.sets]
        verdict = check_regular_position(
            abc[0], abc[1], abc[2], eps, mode=mode, trials=trials, seed=derive(cfg.seed, gi)
        )
        report.instances.append(
            {
                "group": spec,
                "sets": list(cfg.sets),
                "eps": eps,
                "mode": mode,
                **verdict.to_dict(),
            }
        )


def _recipe_product_rich(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    from .regularity import _as_fraction, check_product_rich

    if not cfg.groups or not cfg.sets:
        raise ConfigInvalid("product-rich needs groups and sets")
    eps = _as_fraction(_param(cfg, "eps", required=True))
    mode = _param(cfg, "mode", "exact")
    trials = int(_param(cfg, "trials", 2000))
    for gi, spec in enumerate(cfg.groups):
        group = build_group(spec)
        for si, sspec in enumerate(cfg.sets):
            a = make_set(group, sspec)
            verdict = check_product_rich(
                a, eps, mode=mode, trials=trials, seed=derive(cfg.seed, gi, si)
            )
            report.instances.append(
                {
                    "group": spec,
                    "set": sspec,
                    "card": a.card,
                    "eps": eps,
                    "mode": mode,
                    **verdict.to_dict(),
                }
            )


def _recipe_growth_profile(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    if not cfg.groups or not cfg.sets:
        raise ConfigInvalid("growth-profile needs groups and sets")
    m_max = int(_param(cfg, "m_max", 5))
    for spec in cfg.groups:
        group = build_group(spec)
        for sspec in cfg.sets:
            a = make_set(group, sspec)
            if a.card == 0:
                raise EmptySet("growth profile of the empty set")
            stats = set_statistics(a, m_max)
            report.instances.append(
                {
                    "group": spec,
                    "set": sspec,
                    "card": a.card,
                    "profile": stats.growth_profile,
                    "doubling": stats.doubling,
                    "tripling_aaa": stats.tripling_aaa,
                    "tripling_aia": stats.tripling_aia,
                    "product_free": stats.product_free,
                }
            )


_RECIPE_RUNNERS: Dict[str, Callable[[ExperimentConfig, ExperimentReport], None]] = {
    "mixing-trend": _recipe_mixing_trend,
    "roth-small-doubling": _recipe_roth,
    "power-equation": _recipe_power,
    "schur": _recipe_schur,
    "hindman": _recipe_hindman,
    "regular-position": _recipe_regular_position,
    "product-rich": _recipe_product_rich,
    "growth-profile": _recipe_growth_profile,
}
RECIPES = tuple(_RECIPE_RUNNERS)


def run_recipe(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one recipe and return its report."""
    runner = _RECIPE_RUNNERS.get(cfg.recipe)
    if runner is None:
        raise ConfigInvalid(f"unknown recipe {cfg.recipe!r}")
    report = ExperimentReport(recipe=cfg.recipe, config=cfg.to_dict(), seed=cfg.seed)
    start = time.monotonic()
    runner(cfg, report)
    if cfg.timing:
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


# ---------------------------------------------------------------------------
# sweeps


def _apply_override(data: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigInvalid(f"grid axis {dotted!r} collides with a scalar")
    node[parts[-1]] = value


def sweep(cfg: ExperimentConfig) -> Tuple[List[ExperimentReport], List[Dict[str, Any]]]:
    """Run the config over its grid (a single cell when no grid is given).

    Axes are sorted by name; cell seeds derive from (seed, cell index) so
    results are independent of scheduling.  Returns per-cell reports plus
    flat CSV rows, merged in cell order.
    """
    axes = sorted(cfg.grid.keys())
    values = [cfg.grid[a] for a in axes]
    if any(len(v) == 0 for v in values):
        raise ConfigInvalid("empty grid axis")
    cells = list(iter_product(*values)) if axes else [()]
    if len(cells) > GRID_CELL_CAP:
        raise GridTooLarge(f"{len(cells)} cells exceed cap {GRID_CELL_CAP}")

    def run_cell(index: int) -> ExperimentReport:
        data = cfg.to_dict()
        data["grid"] = {}
        data["threads"] = 1  # cells are single-task; keeps reports thread-count independent
        for axis, value in zip(axes, cells[index]):
            _apply_override(data, axis, value)
        data["seed"] = derive(cfg.seed, index) if axes else cfg.seed
        cell_cfg = ExperimentConfig.from_dict(data)
        return run_recipe(cell_cfg)

    if cfg.threads > 1 and len(cells) > 1:
        # imported here: only threaded sweeps pay for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            reports = list(pool.map(run_cell, range(len(cells))))
    else:
        reports = [run_cell(i) for i in range(len(cells))]

    rows: List[Dict[str, Any]] = []
    for index, (cell, report) in enumerate(zip(cells, reports)):
        base = {"cell_index": index}
        for axis, value in zip(axes, cell):
            base[axis] = value
        base["seed"] = report.seed
        for row in report.csv_rows():
            merged = dict(base)
            merged.update(row)
            rows.append(merged)
    return reports, rows
