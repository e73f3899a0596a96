"""grplab command-line interface.

Every command but ``sweep`` is a function ``(args, group) -> payload``:
``main`` settles the common flags, builds the ``--group`` once, and emits
``{"group": ..., **payload}``.  Exit codes: 0 success, else the failing
error's ``exit_code`` (1 usage or malformed input, 2 invariant violation,
3 budget exceeded; an assertion exits 2, running out of memory 3, a file
or value error 1).  Reports are canonical JSON (or CSV with --format csv);
elapsed_ms is recorded as 0 unless --timing is given, keeping identical
runs byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import errors
from .counting import CountReport, count_ap3, count_power_equation, count_xy_eq_z
from .groups import FiniteGroup, build_group, conjugacy_classes
from .reports import canonical_json, rows_to_csv, _flatten
from .sets import make_set, set_statistics
from .spectral import character_degrees, quasirandomness_degree

# ramsey, regularity, lab and the tuple walks are imported by the handlers
# that run them, so a group, stats or quasirandom call, or an xyz, ap3 or
# power count, never loads them


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        raise SystemExit((self.prog + ": error: " + message, 1))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file supplying seed/threads/format defaults")
    p.add_argument("--seed", type=int, default=None, help="base seed (64-bit)")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads for sweep's grid (0 or 1: one); other commands ignore it",
    )
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--timing", action="store_true", help="record wall-clock in reports")


def _settle_common(args: argparse.Namespace) -> Any:
    """Fill unset common flags from the config file; explicit flags win.
    Returns the config read, or None without --config."""
    cfg = None
    if args.config:
        from .lab import load_config

        cfg = load_config(args.config)
    if args.seed is None:
        args.seed = cfg.seed if cfg else 0
    if args.threads is None:
        args.threads = cfg.threads if cfg else 1
    errors.require_nonnegative(threads=args.threads)
    if args.format is None:
        args.format = cfg.format if cfg else "json"
    if cfg and cfg.timing:
        args.timing = True
    return cfg


def _args_group(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", action="store_true", help="include the conjugacy partition")


def _args_stats(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, dest="set_spec")
    p.add_argument("--m-max", type=int, default=5)


def _args_count(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sets", nargs="+", required=True)
    p.add_argument("--equation", required=True, help="xyz | ap3 | power:n1,n2,n3 | mixing:n")
    p.add_argument("--engine", choices=("auto", "brute", "fft"), default="auto")


def _args_mixing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sets", nargs="*", default=[], help="2^n-1 set specs in binary-subset order")
    p.add_argument("--set-all", dest="set_all", help="one set spec used for every subset")
    p.add_argument("--engine", choices=("auto", "brute", "fft"), default="auto")


def _args_none(p: argparse.ArgumentParser) -> None:
    pass  # quasirandom takes only --group; sweep's recipe, sets and grid come from --config


def _args_schur(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coloring", help="coloring file or random:k,seed")
    p.add_argument("--search", action="store_true", help="adversarial minimizing search")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--restarts", type=int, default=10)


def _args_hindman(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coloring", required=True, help="coloring file or random:k,seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nontrivial", action="store_true")
    p.add_argument("--budget", type=int, default=10**7)


def _args_cip(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--samples", type=int, default=100_000)


def _args_check(p: argparse.ArgumentParser, trials: int) -> None:
    """The options after the sets of ``regular`` and ``rich``."""
    p.add_argument("--eps", required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=trials)


def _args_regular(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sets", nargs=3, required=True)
    _args_check(p, trials=500)


def _args_rich(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, dest="set_spec")
    _args_check(p, trials=2000)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is listed with its help, but
    only the command that ``argv`` runs gets its arguments.  The top-level
    parser has only ``-h``, so argparse runs the first argument that is not
    an option as the command, and that argument picks the command here."""
    parser = _Parser(prog="grplab", description="finite-group counting laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, command in _COMMANDS.items():
        # a command that argv does not run never parses, so it needs no -h
        p = sub.add_parser(name, help=command.help, add_help=name == chosen)
        if name == chosen:
            if name != "sweep":
                p.add_argument("--group", required=True)
            command.add_arguments(p)
            _add_common(p)
    return parser


def _load_coloring(group, spec: str):
    from .ramsey import Coloring

    if spec.startswith("random:"):
        body = spec[len("random:"):]
        try:
            k, seed = (int(x) for x in body.split(","))
        except ValueError:
            raise errors.MalformedSpec(f"bad coloring spec {spec!r}") from None
        return Coloring.random(group, k, seed)
    with open(spec, encoding="utf-8") as fh:
        return Coloring.from_json(group, fh.read())


def _emit(payload: Dict[str, Any], args: argparse.Namespace, started: float) -> None:
    payload.setdefault("seed", args.seed)
    payload["elapsed_ms"] = int((time.monotonic() - started) * 1000) if args.timing else 0
    if args.format == "csv":
        text = rows_to_csv([_flatten(payload)])
    else:
        text = canonical_json(payload)
    _write_report(text, args.out)


def _write_report(text: str, out: Optional[str]) -> None:
    """Write report text to the --out file, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_group(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "spec": group.spec_text,
        "order": group.order,
        "abelian": group.is_abelian,
        "cyclic_moduli": list(group.cyclic_moduli) if group.cyclic_moduli else None,
    }
    if args.classes:
        cc = conjugacy_classes(group)
        payload["class_count"] = cc.count
        payload["class_sizes"] = cc.sizes()
    return payload


def _cmd_stats(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    a = make_set(group, args.set_spec)
    return {
        "set": args.set_spec,
        "card": a.card,
        "density": a.density,
        **set_statistics(a, args.m_max)._asdict(),
    }


def _mixing_subsets(n: int) -> List[Tuple[int, ...]]:
    """The subsets of `mixing:n`, binary order; n outside 2..4 is refused before any subset is listed."""
    from .tuples import _check_mixing_n, all_nonempty_subsets

    _check_mixing_n(n)
    return all_nonempty_subsets(n)


def _count_mixing(n: int, sets: Sequence, engine: str) -> CountReport:
    """The mixing count of `count --equation mixing:n` and `mixing`: one set per subset, binary order."""
    from .tuples import count_mixing_tuples

    return count_mixing_tuples(n, dict(zip(_mixing_subsets(n), sets)), engine)


def _cmd_count(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    sets = [make_set(group, s) for s in args.sets]
    equation = args.equation
    if equation == "xyz":
        if len(sets) != 3:
            raise errors.ConfigInvalid("xyz needs exactly three sets")
        rep = count_xy_eq_z(sets[0], sets[1], sets[2], args.engine)
    elif equation == "ap3":
        if len(sets) != 1:
            raise errors.ConfigInvalid("ap3 needs exactly one set")
        rep = count_ap3(sets[0], args.engine)
    elif equation.startswith("power:"):
        if len(sets) != 1:
            raise errors.ConfigInvalid("power needs exactly one set")
        try:
            n1, n2, n3 = (int(x) for x in equation[len("power:"):].split(","))
        except ValueError:
            raise errors.MalformedSpec(f"bad power equation {equation!r}") from None
        rep = count_power_equation(sets[0], n1, n2, n3, args.engine)
    elif equation.startswith("mixing:"):
        try:
            n = int(equation[len("mixing:"):])
        except ValueError:
            raise errors.MalformedSpec(f"bad mixing equation {equation!r}") from None
        k = len(_mixing_subsets(n))
        sets = sets * k if len(sets) == 1 else sets
        if len(sets) != k:
            raise errors.ConfigInvalid(f"mixing:{n} needs {k} sets (or one for all)")
        rep = _count_mixing(n, sets, args.engine)
    else:
        raise errors.MalformedSpec(f"unknown equation {equation!r}")
    return {"sets": list(args.sets), **rep.to_dict()}


def _cmd_mixing(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    k = len(_mixing_subsets(args.n))
    if not args.set_all and len(args.sets) != k:
        raise errors.ConfigInvalid(f"mixing n={args.n} needs {k} sets in binary-subset order")
    specs = [args.set_all] if args.set_all else args.sets
    made = {s: make_set(group, s) for s in dict.fromkeys(specs)}
    set_specs = specs * k if args.set_all else list(specs)
    rep = _count_mixing(args.n, [made[s] for s in set_specs], args.engine)
    return {"sets": set_specs, **rep.to_dict()}


def _cmd_quasirandom(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    profile = character_degrees(group, seed=args.seed)
    return {
        "order": group.order,
        "class_count": profile.class_count,
        "degrees": list(profile.degrees),
        "quasirandomness_degree": quasirandomness_degree(group, seed=args.seed),
        "abelianization_order": profile.abelianization_order,
    }


def _cmd_schur(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    from .ramsey import schur_adversarial_search, schur_counts

    if args.search:
        result = schur_adversarial_search(
            group, args.k, iterations=args.iterations, restarts=args.restarts, seed=args.seed
        )
        return {"mode": "search", **result.to_dict()}
    if not args.coloring:
        raise errors.ConfigInvalid("schur needs --coloring (or --search)")
    rep = schur_counts(_load_coloring(group, args.coloring))
    return {"coloring": args.coloring, **rep.to_dict()}


def _cmd_hindman(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    from .ramsey import monochromatic_tuple_search

    coloring = _load_coloring(group, args.coloring)
    result = monochromatic_tuple_search(
        coloring, args.n, budget=args.budget, nontrivial=args.nontrivial
    )
    return {
        "coloring": args.coloring,
        "n": args.n,
        "nontrivial": args.nontrivial,
        **result.to_dict(),
    }


def _cmd_cip(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    from .ramsey import cip_density_experiment

    return cip_density_experiment(
        group, args.k, args.n, trials=args.trials, seed=args.seed, samples=args.samples
    )


def _cmd_regular(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    from .regularity import _as_fraction, check_regular_position

    sets = [make_set(group, s) for s in args.sets]
    eps = _as_fraction(args.eps)
    verdict = check_regular_position(
        sets[0], sets[1], sets[2], eps, mode=args.mode, trials=args.trials, seed=args.seed
    )
    return {"sets": list(args.sets), "eps": eps, "mode": args.mode, **verdict.to_dict()}


def _cmd_rich(args: argparse.Namespace, group: FiniteGroup) -> Dict[str, Any]:
    from .regularity import _as_fraction, check_product_rich

    a = make_set(group, args.set_spec)
    eps = _as_fraction(args.eps)
    verdict = check_product_rich(a, eps, mode=args.mode, trials=args.trials, seed=args.seed)
    return {"set": args.set_spec, "eps": eps, "mode": args.mode, **verdict.to_dict()}


def _cmd_sweep(args: argparse.Namespace) -> None:
    """Run the config's recipe over its grid and write the reports itself:
    one JSON list, or the merged CSV rows."""
    if not args.config:
        raise errors.ConfigInvalid("sweep needs --config")
    from .lab import sweep

    cfg = _settle_common(args)
    cfg.seed, cfg.threads, cfg.format, cfg.timing = args.seed, args.threads, args.format, args.timing
    reports, rows = sweep(cfg)
    if cfg.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = canonical_json([r.to_dict() for r in reports])
    _write_report(text, args.out)


class _Command(NamedTuple):
    run: Callable[..., Any]  # (args, group) -> payload; sweep's takes args alone
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]


_COMMANDS = {
    "group": _Command(_cmd_group, "group construction info", _args_group),
    "stats": _Command(_cmd_stats, "subset growth statistics", _args_stats),
    "count": _Command(_cmd_count, "count solutions of an equation", _args_count),
    "mixing": _Command(_cmd_mixing, "count mixing tuples (all subproducts constrained)", _args_mixing),
    "quasirandom": _Command(
        _cmd_quasirandom, "character degrees and quasirandomness degree", _args_none
    ),
    "schur": _Command(_cmd_schur, "per-color product-triple counts", _args_schur),
    "hindman": _Command(_cmd_hindman, "monochromatic product-tuple search", _args_hindman),
    "cip": _Command(_cmd_cip, "monochromatic tuple densities over random colorings", _args_cip),
    "regular": _Command(_cmd_regular, "regular-position check for three sets", _args_regular),
    "rich": _Command(_cmd_rich, "product-richness check for one set", _args_rich),
    "sweep": _Command(_cmd_sweep, "run a recipe config over its grid", _args_none),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            message, code = exc.code
            print(message, file=sys.stderr)
            return code
        return 1 if exc.code else 0
    started = time.monotonic()
    run = _COMMANDS[args.command].run
    try:
        if args.command == "sweep":
            run(args)
        else:
            _settle_common(args)
            _emit({"group": args.group, **run(args, build_group(args.group))}, args, started)
        return 0
    except errors.GrplabError as exc:
        code, message = exc.exit_code, str(exc)
    except AssertionError as exc:
        code, message = 2, str(exc)
    except MemoryError:
        code, message = 3, "out of memory"
    except (OSError, ValueError) as exc:
        code, message = 1, str(exc)
    prefix = {2: "invariant violation: ", 3: "budget exceeded: "}.get(code, "")
    print(f"grplab: {prefix}{message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
