"""The benchmark's four workloads, each a fixed list of ``grplab`` CLI jobs.

The workload seed generates every input the program sees: ``random:`` set
seeds, coloring seeds, ``--seed`` values, recipe config files, seeded
``explicit:`` element picks and the ``table:`` CSV.  Sizes are chosen so that
the cost of a job does not depend on the seed: random sets have fixed
densities in large groups, exact-mode regularity checks use fixed sets, the
power count uses a fixed number of elements of prime order, the sparse
growth profile a fixed number of elements, and the backtracking search runs
several colorings to a small node budget.

* ``table-path``: groups of order <= TABLE_CAP (4096).  Cayley-table builds
  and gathers, the n^2 commutator closure behind the character degrees, and
  the validation of a ``table:`` CSV.  The FFT engine never runs here.
* ``kernel-path``: nonabelian groups above TABLE_CAP.  Every product goes
  through PSL2 field arithmetic or permutation composition and a sorted-key
  lookup; no table is built and random draws are few.
* ``abelian-fft``: cyclic products above TABLE_CAP.  Mostly scalar random
  draws (``random:`` sets) and FFT convolution, including the productset
  shortcut; never the table path or the spectral layer.
* ``search``: groups of order <= 660 in many short jobs, so interpreter start
  and import weigh in.  Coloring searches and regularity checks drive scalar
  ``FiniteGroup.mul`` and scalar draws.  An exact ``regular`` check on random
  sets is left out: one such instance on PSL2(7) ran for 840 s without
  finishing, and a job that never ends gives no time to measure.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

import checks
import oracle

WORKLOADS = ("table-path", "kernel-path", "abelian-fft", "search")

S6 = "perm:(1 2 3 4 5 6);(1 2)"
S7 = "perm:(1 2 3 4 5 6 7);(1 2)"


@dataclass
class Job:
    """One ``grplab`` invocation, the input files it reads, and its check."""

    name: str
    argv: List[str]
    check: Callable[[object], None]
    files: Dict[str, str] = field(default_factory=dict)


def psl2_facts(q: int) -> dict:
    """Known invariants of PSL2(q), q an odd prime: (q+5)/2 classes, trivial
    abelianization, minimal nontrivial degree (q-1)/2 or (q+1)/2."""
    return {
        "order": q * (q * q - 1) // 2,
        "class_count": (q + 5) // 2,
        "qdeg": (q - 1) // 2 if q % 4 == 3 else (q + 1) // 2,
        "ab_order": 1,
    }


def _common(seed: int) -> List[str]:
    return ["--seed", str(seed), "--threads", "1"]


def _pick(order: int, count: int, seed: int) -> List[int]:
    """``count`` distinct non-identity elements, chosen by ``seed``."""
    words = oracle.u64_stream(seed, 4 * count + 64)
    picks: List[int] = []
    for w in (words % np.uint64(order - 1) + np.uint64(1)).tolist():
        if w not in picks:
            picks.append(w)
            if len(picks) == count:
                return sorted(picks)
    raise RuntimeError("seeded pick ran out of draws")


def _explicit(members: List[int]) -> str:
    return "explicit:" + ",".join(map(str, members))


def _random_spec(density: float, seed: int) -> str:
    return f"random:{density},{seed}"


def _mask(spec: str, order: int) -> np.ndarray:
    """Members of a ``random:density,seed`` set, by the oracle's SplitMix64."""
    density, seed = spec[len("random:"):].split(",")
    return oracle.random_mask(order, float(density), int(seed))


def table_path(sub: Callable[..., int]) -> List[Job]:
    jobs: List[Job] = []
    facts = psl2_facts(11)
    jobs.append(Job(
        "quasirandom-psl2-11",
        ["quasirandom", "--group", "PSL2(11)"] + _common(sub(1)),
        lambda out: checks.quasirandom(out, facts["order"], facts["class_count"], facts["qdeg"], facts["ab_order"]),
    ))

    cfg_seed = sub(2)
    config = 'recipe = "mixing-trend"\ngroups = ["PSL2(11)", "PSL2(13)"]\n[params]\ndensity = 0.3\nseeds = 2\n'

    def check_mixing(out) -> None:
        checks.require(isinstance(out, list) and len(out) == 1, "sweep without a grid gives one report")
        report = out[0]
        checks.require(report["recipe"] == "mixing-trend" and report["seed"] == cfg_seed, "mixing report header")
        checks.require(len(report["instances"]) == 4, "mixing instance count")
        for inst in report["instances"]:
            q = int(inst["group"][5:-1])
            gi = [11, 13].index(q)
            group = oracle.psl2(q)
            inst_seed = oracle.derive(cfg_seed, gi, inst["seed_index"])
            specs = [_random_spec(0.3, oracle.derive(inst_seed, t)) for t in range(3)]
            checks.require(inst["instance_seed"] == inst_seed and inst["sets"] == specs, "mixing instance seeds")
            masks = [_mask(s, group.order) for s in specs]
            cards = [int(m.sum()) for m in masks]
            checks.require(inst["cards"] == cards, "mixing set sizes")
            checks.require(inst["quasirandomness_degree"] == psl2_facts(q)["qdeg"], "mixing quasirandomness degree")
            checks.require(inst["expected"] == cards[0] * cards[1] * cards[2] / group.order, "mixing expectation")
            checks.require(inst["engine"] == "CayleyConvolution", "mixing engine")
            checks.require(inst["count"] == checks.xyz_exact(group, masks), "mixing count differs from the oracle")

    jobs.append(Job("mixing-trend-sweep", ["sweep", "--config", "mixing.cfg"] + _common(cfg_seed), check_mixing,
                    {"mixing.cfg": config}))

    spec = _random_spec(0.3, sub(3))
    jobs.append(Job(
        "ap3-psl2-17",
        ["count", "--group", "PSL2(17)", "--sets", spec, "--equation", "ap3"] + _common(sub(3)),
        lambda out: checks.ap3(out, oracle.psl2(17), _mask(spec, 2448)),
    ))

    stats_spec = _random_spec(0.1, sub(4))
    jobs.append(Job(
        "stats-s6",
        ["stats", "--group", S6, "--set", stats_spec] + _common(sub(4)),
        lambda out: checks.stats(out, oracle.build(S6), _mask(stats_spec, 720), 5),
    ))

    # dihedral group of order 510, the largest order whose CSV gets the full
    # associativity check; above 512 the seeded sampler alone runs 13 s, which
    # would make this workload a single long job whose time follows the host's
    # speed drift
    table = oracle.dihedral_table(255, sub(5))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table.tolist())
    dihedral_sizes = [1] + [2] * 127 + [255]
    jobs.append(Job(
        "classes-table-csv",
        ["group", "--group", "table:dihedral.csv", "--classes"] + _common(sub(5)),
        lambda out: checks.classes(out, 510, dihedral_sizes, 129, abelian=False),
        {"dihedral.csv": buf.getvalue()},
    ))
    return jobs


def kernel_path(sub: Callable[..., int]) -> List[Job]:
    jobs: List[Job] = []
    xyz_specs = [_random_spec(0.15, sub(1, t)) for t in range(3)]

    def check_xyz(out) -> None:
        group = oracle.psl2(29)
        masks = [_mask(s, group.order) for s in xyz_specs]
        checks.xyz(out, group, masks, "CayleyConvolution", checks.xyz_exact(group, masks))

    jobs.append(Job("xyz-psl2-29", ["count", "--group", "PSL2(29)", "--sets", *xyz_specs, "--equation", "xyz"]
                    + _common(sub(1)), check_xyz))

    ap3_spec = _random_spec(0.2, sub(2))
    jobs.append(Job(
        "ap3-psl2-23",
        ["count", "--group", "PSL2(23)", "--sets", ap3_spec, "--equation", "ap3"] + _common(sub(2)),
        lambda out: checks.ap3(out, oracle.psl2(23), _mask(ap3_spec, 6072)),
    ))

    power_spec = _random_spec(0.1, sub(3))
    jobs.append(Job(
        "power-s7",
        ["count", "--group", S7, "--sets", power_spec, "--equation", "power:2,3,5"] + _common(sub(3)),
        lambda out: checks.power(out, oracle.build(S7), np.nonzero(_mask(power_spec, 5040))[0], (2, 3, 5)),
    ))

    facts = psl2_facts(23)
    jobs.append(Job(
        "classes-psl2-23",
        ["group", "--group", "PSL2(23)", "--classes"] + _common(sub(4)),
        lambda out: checks.classes(out, facts["order"], None, facts["class_count"], abelian=False),
    ))

    sparse = _pick(5040, 15, sub(5))
    jobs.append(Job(
        "stats-s7-sparse",
        ["stats", "--group", S7, "--set", _explicit(sparse)] + _common(sub(5)),
        lambda out: checks.stats(out, oracle.build(S7), np.isin(np.arange(5040), sparse), 5),
    ))

    # n = 1: one greedy step over the whole first color class, whatever the
    # coloring (a second step would repeat it when the identity has color 0)
    coloring_seed = sub(6)
    jobs.append(Job(
        "hindman-greedy-s7",
        ["hindman", "--group", S7, "--coloring", f"random:4,{coloring_seed}", "--n", "1"] + _common(sub(6)),
        lambda out: checks.witness(out, oracle.build(S7), oracle.random_coloring(5040, 4, coloring_seed), 1, False),
    ))
    return jobs


def abelian_fft(sub: Callable[..., int]) -> List[Job]:
    jobs: List[Job] = []
    for name, spec, moduli, density in (
        ("xyz-z200000", "Z/200000", (200000,), 0.5),
        ("xyz-z400xz500", "Z/400 x Z/500", (400, 500), 0.3),
    ):
        specs = [_random_spec(density, sub(len(jobs) + 1, t)) for t in range(3)]

        def check_fft(out, specs=specs, moduli=moduli) -> None:
            group = oracle.cyclic_product(moduli)
            masks = [_mask(s, group.order) for s in specs]
            conv = checks.cyclic_convolution(moduli, masks[0].astype(np.int64), masks[1].astype(np.int64))
            checks.xyz(out, group, masks, "AbelianFFT", int(conv[masks[2]].sum()))

        jobs.append(Job(name, ["count", "--group", spec, "--sets", *specs, "--equation", "xyz"]
                        + _common(sub(len(jobs) + 1)), check_fft))

    moduli = (2, 2, 50000)
    stats_spec = _random_spec(0.05, sub(3))
    jobs.append(Job(
        "stats-z2xz2xz50000",
        ["stats", "--group", "Z/2 x Z/2 x Z/50000", "--set", stats_spec, "--m-max", "3"] + _common(sub(3)),
        lambda out: checks.stats(out, oracle.cyclic_product(moduli), _mask(stats_spec, 200000), 3, moduli=moduli),
    ))

    roth_sets = ["interval:0,1000", _random_spec(0.01, sub(4))]
    config = ('recipe = "roth-small-doubling"\ngroups = ["Z/100000"]\n'
              f'sets = ["{roth_sets[0]}", "{roth_sets[1]}"]\n')

    def check_roth(out) -> None:
        group = oracle.cyclic_product((100000,))
        report = out[0]
        checks.require(len(out) == 1 and len(report["instances"]) == 2, "roth instance count")
        interval = np.zeros(100000, dtype=bool)
        interval[:1000] = True
        for inst, mask in zip(report["instances"], (interval, _mask(roth_sets[1], 100000))):
            card = int(mask.sum())
            checks.require(inst["card"] == card, "roth set size")
            checks.require(inst["degenerate"] == card, "roth degenerate count != |A|")
            # (x, x+d, x+2d) all in A: pairs (x, m) of A with 2m - x in A
            ai = np.nonzero(mask)[0]
            count = int(mask[(2 * ai[None, :] - ai[:, None]) % 100000].sum())
            checks.require(inst["count"] == count, f"roth ap3 count {inst['count']} != oracle {count}")
            sums = np.unique((ai[:, None] + ai[None, :]) % 100000)
            checks.require(checks.frac(inst["doubling"]) == Fraction(len(sums), card), "roth doubling")
        checks.require(report["instances"][0]["count"] == 500000, "interval of 1000 has ceil(1000^2/2) progressions")

    jobs.append(Job("roth-sweep", ["sweep", "--config", "roth.cfg"] + _common(sub(4)), check_roth,
                    {"roth.cfg": config}))

    # every non-identity element of Z/20011 (prime) has order 20011, so the
    # element-order loop costs the same for any pick of 24 elements
    members = _pick(20011, 24, sub(5))
    jobs.append(Job(
        "power-z20011",
        ["count", "--group", "Z/20011", "--sets", _explicit(members), "--equation", "power:2,3,5"] + _common(sub(5)),
        lambda out: checks.power(out, oracle.cyclic_product((20011,)), np.array(members), (2, 3, 5)),
    ))
    return jobs


def search(sub: Callable[..., int]) -> List[Job]:
    jobs: List[Job] = []
    jobs.append(Job(
        "schur-search-psl2-7",
        ["schur", "--group", "PSL2(7)", "--search", "--k", "2", "--iterations", "3", "--restarts", "3"]
        + _common(sub(1)),
        lambda out: checks.schur_search(out, oracle.psl2(7), 2, 3, 3),
    ))

    # the cost of a backtracking node depends on how deep a coloring lets the
    # search go, so six colorings share the node budget of one job
    hindman_seed = sub(2)
    config = ('recipe = "hindman"\ngroups = ["PSL2(11)"]\n[params]\nk = 2\nn = 7\nnontrivial = true\n'
              'budget = 250\nseeds = 6\n')

    def check_hindman_sweep(out) -> None:
        instances = out[0]["instances"]
        checks.require(len(out) == 1 and len(instances) == 6, "hindman instance count")
        for inst in instances:
            coloring_seed = oracle.derive(hindman_seed, 0, inst["seed_index"])
            checks.require(inst["coloring_seed"] == coloring_seed, "hindman coloring seed")
            check_hindman(inst, 7, coloring_seed)

    def check_hindman(out, n: int, coloring_seed: int) -> None:
        if out.get("exhausted"):
            checks.require(out["budget_hit"] is True, "search ended without a witness or a spent budget")
            return
        checks.witness(out, oracle.psl2(11), oracle.random_coloring(660, 2, coloring_seed), n, True)

    jobs.append(Job("hindman-backtrack-sweep", ["sweep", "--config", "hindman.cfg"] + _common(hindman_seed),
                    check_hindman_sweep, {"hindman.cfg": config}))
    witness_seed = sub(3)
    jobs.append(Job(
        "hindman-backtrack-witness",
        ["hindman", "--group", "PSL2(11)", "--coloring", f"random:2,{witness_seed}", "--n", "4", "--nontrivial"]
        + _common(witness_seed),
        lambda out: check_hindman(out, 4, witness_seed),
    ))

    psl2_5 = oracle.psl2(5)
    rich_exact = list(range(1, 17))
    rich_sampled = list(range(100, 120))
    for name, group_spec, members, eps, mode, trials, index in (
        ("rich-exact-psl2-5", "PSL2(5)", rich_exact, Fraction(1, 2), "exact", 2000, 5),
        ("rich-sampled-psl2-11", "PSL2(11)", rich_sampled, Fraction(1, 3), "sampled", 300, 4),
    ):
        jobs.append(Job(
            name,
            ["rich", "--group", group_spec, "--set", _explicit(members), "--eps", str(eps), "--mode", mode,
             "--trials", str(trials)] + _common(sub(index)),
            lambda out, g=group_spec, m=members, e=eps, md=mode, t=trials:
                checks.regularity(out, oracle.build(g), [m], e, md, t),
        ))

    regular_exact = [list(range(1, 8)), list(range(11, 18)), list(range(21, 28))]
    regular_sampled = [list(range(30, 40)), list(range(40, 50)), list(range(50, 60))]
    for name, members, mode, trials, index in (
        ("regular-exact-psl2-5", regular_exact, "exact", 500, 7),
        ("regular-sampled-psl2-5", regular_sampled, "sampled", 60, 6),
    ):
        jobs.append(Job(
            name,
            ["regular", "--group", "PSL2(5)", "--sets", *(_explicit(m) for m in members), "--eps", "1/2",
             "--mode", mode, "--trials", str(trials)] + _common(sub(index)),
            lambda out, m=members, md=mode, t=trials: checks.regularity(out, psl2_5, m, Fraction(1, 2), md, t),
        ))

    jobs.append(Job(
        "cip-psl2-11",
        ["cip", "--group", "PSL2(11)", "--k", "2", "--n", "3", "--trials", "2", "--samples", "1500"] + _common(sub(8)),
        lambda out: checks.cip(out, 2, 3, 2, 1500),
    ))
    return jobs


_JOB_LISTS = {
    "table-path": table_path,
    "kernel-path": kernel_path,
    "abelian-fft": abelian_fft,
    "search": search,
}


def jobs(workload: str, seed: int) -> List[Job]:
    """The job list of ``workload`` for the workload seed ``seed``."""
    index = WORKLOADS.index(workload)

    def sub(*path: int) -> int:
        return oracle.derive(seed, index, *path) % 1_000_000_007

    return _JOB_LISTS[workload](sub)
