"""Span recording around grplab's public functions, and per-layer metrics.

The recorder runs inside a job process (see ``launch.py``).  It wraps, from
outside the package, every public module-level function of every grplab
module, at every module that binds it by name, plus each group class's
``mul_arrays`` and the lazy Cayley ``table`` build.  A span records name,
start, end, parent and the time its children covered.  The hot scalar paths
get no span: ``FiniteGroup.mul`` only counts calls, and random draws are
counted exactly from each stream's state (SplitMix64 advances by a fixed odd
increment per word) while a sampled timer estimates their busy time.  Spans stay in
memory and are written out when the job ends; jobs run single-threaded.

``summarize`` and ``finish`` turn the spans of the jobs of one pass into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

LAYERS = ("rng", "groups", "sets", "counting", "spectral", "ramsey", "regularity", "lab", "cli", "reports")
_LAYER_OF_MODULE = {f"grplab.{name}": name for name in LAYERS}
_LAYER_OF_MODULE["grplab.gf"] = "groups"

_KIND_OF_GROUP_CLASS = {
    "PSL2Group": "psl2",
    "PermutationGroup": "perm",
    "CyclicProductGroup": "cyclic",
    "TableGroup": "table",
    "GeneralDirectProductGroup": "product",
}
# the leaf draws; every other SplitMix64 draw method is built on these
_RNG_DRAW_METHODS = ("uniform", "randrange")
_DRAWS_TIMED_FIRST = 64
_DRAW_TIMING_STRIDE = 16
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)

ENGINES = ("CayleyConvolution", "AbelianFFT", "BruteForce")
_COUNT_CALLS = {
    "counting.count_xy_eq_z": "xyz",
    "counting.count_ap3": "ap3",
    "counting.count_power_equation": "power",
    "counting.count_mixing_tuples": "mixing",
}


def _pairs_and_engine(args, kwargs, result) -> list:
    """|A||B| for xyz, |A|^2 for ap3 and power, 0 for mixing; plus the engine."""
    name = result.equation
    if name == "xyz":
        pairs = args[0].card * args[1].card
    elif name in ("ap3", "power"):
        pairs = args[0].card ** 2
    else:
        pairs = 0
    return [pairs, result.engine]


_VALUE_HOOKS: Dict[str, Callable[[tuple, dict, Any], Any]] = {
    **{name: _pairs_and_engine for name in _COUNT_CALLS},
    "spectral.character_degrees": lambda a, k, r: r.class_count,
    "ramsey.schur_adversarial_search": lambda a, k, r: r.iterations_used,
    "ramsey.hindman_greedy": lambda a, k, r: int(hasattr(r, "elements")),
    "regularity.check_product_rich": lambda a, k, r: r.samples or 0,
    "regularity.check_regular_position": lambda a, k, r: r.samples or 0,
}


class Recorder:
    """Spans, counters and the build timer of one job process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, child_s, value]
        self.stack: List[int] = []
        self.build_s = 0.0
        self.scalar_mul_calls = 0
        self.in_scalar_mul = 0
        self.draw_calls = 0
        self.rng_busy_s = 0.0
        self.streams: List[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def span(self, name: str, fn: Callable, hook=None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            entry = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                entry[1], entry[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
            if hook is not None:
                entry[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def build_timer(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.build_s += clock() - start

        return wrapper

    def _scalar_mul(self, fn: Callable) -> Callable:
        def wrapper(group, i, j):
            self.scalar_mul_calls += 1
            self.in_scalar_mul += 1
            try:
                return fn(group, i, j)
            finally:
                self.in_scalar_mul -= 1

        return wrapper

    def _mul_arrays(self, kind: str, fn: Callable) -> Callable:
        traced = self.span(f"groups.mul_arrays.{kind}", fn, lambda a, k, r: int(r.size))

        def wrapper(group, a, b):
            # a scalar product computed through the vector kernel is one
            # counted scalar call, not a span
            if self.in_scalar_mul:
                return fn(group, a, b)
            return traced(group, a, b)

        return wrapper

    def _draw(self, fn: Callable) -> Callable:
        """Time the first draws, then every 16th, weighting each timed call
        by the calls it stands for; a per-call timer would double the cost
        of a scalar draw."""
        clock = time.perf_counter

        def wrapper(stream, *args):
            calls = self.draw_calls
            self.draw_calls = calls + 1
            if calls >= _DRAWS_TIMED_FIRST and calls % _DRAW_TIMING_STRIDE:
                return fn(stream, *args)
            start = clock()
            try:
                return fn(stream, *args)
            finally:
                spent = clock() - start
                if calls >= _DRAWS_TIMED_FIRST:
                    spent *= _DRAW_TIMING_STRIDE
                self.rng_busy_s += spent
                if self.stack:
                    self.spans[self.stack[-1]][4] += spent

        return wrapper

    # -- installation -----------------------------------------------------
    def install_build_timer(self, modules) -> None:
        """The only instrumentation of an untraced job: time build_group."""
        original = modules["grplab.groups"].build_group
        timed = self.build_timer(original)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if obj is original:
                    setattr(module, name, timed)

    def install_tracing(self, modules) -> None:
        import inspect

        wrappers: Dict[int, Callable] = {}
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _LAYER_OF_MODULE.get(obj.__module__)
                if layer is None or layer == "rng":
                    continue  # rng is measured by draw counters, not spans
                if id(obj) not in wrappers:
                    span_name = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = self.span(span_name, obj, _VALUE_HOOKS.get(span_name))
                setattr(module, name, wrappers[id(obj)])

        groups = modules["grplab.groups"]
        for cls in vars(groups).values():
            if not (inspect.isclass(cls) and issubclass(cls, groups.FiniteGroup)) or cls is groups.FiniteGroup:
                continue
            kind = _KIND_OF_GROUP_CLASS.get(cls.__name__, cls.__name__.lower())
            if "mul_arrays" in vars(cls):
                cls.mul_arrays = self._mul_arrays(kind, vars(cls)["mul_arrays"])
            if "mul" in vars(cls):
                cls.mul = self._scalar_mul(vars(cls)["mul"])

        build_table = groups.FiniteGroup.table.fget
        traced_build = self.span("groups.table", build_table)
        cap = groups.TABLE_CAP

        def table(group):
            if group._table is None and group.order <= cap:
                return traced_build(group)
            return build_table(group)

        groups.FiniteGroup.table = property(table, doc=groups.FiniteGroup.table.__doc__)

        stream_cls = modules["grplab.rng"].SplitMix64
        init = stream_cls.__init__

        def register(stream, seed):
            init(stream, seed)
            self.streams.append((stream, stream._state))

        stream_cls.__init__ = register
        for name in _RNG_DRAW_METHODS:
            setattr(stream_cls, name, self._draw(getattr(stream_cls, name)))

    def draws(self) -> int:
        """Exact number of 64-bit words drawn, from each stream's state."""
        return sum(((s._state - start) * _GOLDEN_INV) & _MASK64 for s, start in self.streams)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "scalar_mul_calls": self.scalar_mul_calls,
            "rng_busy_s": self.rng_busy_s,
            "rng_draws": self.draws(),
        }


# ---------------------------------------------------------------------------
# per-layer metrics


def metric_names() -> List[str]:
    """Every per-layer metric the traced run reports."""
    names = [
        "rng.draws", "rng.busy_s", "rng.draws_per_s",
        "groups.build_s", "groups.table_builds", "groups.table_s", "groups.mul_arrays_calls",
        "groups.products", *(f"groups.products.{k}" for k in _KIND_OF_GROUP_CLASS.values()),
        "groups.mul_arrays_s", "groups.products_per_s", "groups.scalar_mul_calls",
        "groups.classes_s", "groups.element_order_s",
        "sets.make_set_s", "sets.product_set_calls", "sets.product_set_s", "sets.conv_shortcut_calls",
        *(f"counting.{k}_s" for k in _COUNT_CALLS.values()),
        "counting.pairs", "counting.pairs_per_s", "counting.fft_calls", "counting.fft_s",
        *(f"counting.engine.{e}.calls" for e in ENGINES),
        "spectral.degrees_calls", "spectral.degrees_s", "spectral.abelianization_calls",
        "spectral.abelianization_s", "spectral.class_count",
        "ramsey.schur_search_s", "ramsey.search_iterations", "ramsey.tuple_search_s", "ramsey.greedy_s",
        "ramsey.greedy_attempts", "ramsey.greedy_hits", "ramsey.greedy_hit_frac", "ramsey.cip_s",
        "regularity.rich_s", "regularity.regular_s", "regularity.samples",
        "cli.import_s", "lab.recipe_s", "reports.encode_s",
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace.overhead_s",
    ]
    return names


_SPAN_SECONDS = {
    "groups.build_group": "groups.build_s",
    "groups.table": "groups.table_s",
    "groups.conjugacy_classes": "groups.classes_s",
    "groups.element_order": "groups.element_order_s",
    "sets.make_set": "sets.make_set_s",
    "sets.product_set": "sets.product_set_s",
    "counting.cyclic_convolution": "counting.fft_s",
    "spectral.character_degrees": "spectral.degrees_s",
    "spectral.abelianization_order": "spectral.abelianization_s",
    "ramsey.schur_adversarial_search": "ramsey.schur_search_s",
    "ramsey.monochromatic_tuple_search": "ramsey.tuple_search_s",
    "ramsey.hindman_greedy": "ramsey.greedy_s",
    "ramsey.cip_density_experiment": "ramsey.cip_s",
    "regularity.check_product_rich": "regularity.rich_s",
    "regularity.check_regular_position": "regularity.regular_s",
    "lab.run_recipe": "lab.recipe_s",
    "reports.canonical_json": "reports.encode_s",
    "reports.rows_to_csv": "reports.encode_s",
    **{name: f"counting.{short}_s" for name, short in _COUNT_CALLS.items()},
}
_SPAN_CALLS = {
    "groups.table": "groups.table_builds",
    "sets.product_set": "sets.product_set_calls",
    "counting.cyclic_convolution": "counting.fft_calls",
    "spectral.character_degrees": "spectral.degrees_calls",
    "spectral.abelianization_order": "spectral.abelianization_calls",
    "ramsey.hindman_greedy": "ramsey.greedy_attempts",
}
_SPAN_VALUES = {
    "spectral.character_degrees": "spectral.class_count",
    "ramsey.schur_adversarial_search": "ramsey.search_iterations",
    "ramsey.hindman_greedy": "ramsey.greedy_hits",
    "regularity.check_product_rich": "regularity.samples",
    "regularity.check_regular_position": "regularity.samples",
}


def _family(name: str) -> str:
    return "groups.mul_arrays" if name.startswith("groups.mul_arrays.") else name


def summarize(trace: dict, import_s: float) -> Dict[str, float]:
    """Additive per-layer totals of one traced job."""
    totals: Dict[str, float] = {name: 0 for name in metric_names()}
    spans = trace["spans"]
    for index, (name, start, end, parent, child_s, value) in enumerate(spans):
        duration = end - start
        totals[f"{name.split('.', 1)[0]}.self_s"] += duration - child_s
        # a call nested in a call of the same family is already inside it
        family, outer, ancestor = _family(name), True, parent
        while ancestor >= 0:
            if _family(spans[ancestor][0]) == family:
                outer = False
                break
            ancestor = spans[ancestor][3]
        if not outer:
            continue
        if name in _SPAN_SECONDS:
            totals[_SPAN_SECONDS[name]] += duration
        if name in _SPAN_CALLS:
            totals[_SPAN_CALLS[name]] += 1
        if name in _SPAN_VALUES:
            totals[_SPAN_VALUES[name]] += value
        if family == "groups.mul_arrays":
            totals["groups.mul_arrays_calls"] += 1
            totals["groups.mul_arrays_s"] += duration
            totals["groups.products"] += value
            totals[f"groups.products.{name.rsplit('.', 1)[1]}"] += value
        elif name in _COUNT_CALLS:
            pairs, engine = value
            totals["counting.pairs"] += pairs
            totals[f"counting.engine.{engine}.calls"] += 1
        elif name == "counting.cyclic_convolution" and parent >= 0 and spans[parent][0] == "sets.product_set":
            totals["sets.conv_shortcut_calls"] += 1
    totals["groups.scalar_mul_calls"] = trace["scalar_mul_calls"]
    totals["rng.draws"] = trace["rng_draws"]
    totals["rng.busy_s"] = totals["rng.self_s"] = trace["rng_busy_s"]
    totals["cli.import_s"] = import_s
    return totals


def finish(totals: Dict[str, float]) -> Dict[str, float]:
    """Ratios from summed totals (0 when nothing was measured)."""
    out = dict(totals)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out["rng.draws_per_s"] = ratio(totals["rng.draws"], totals["rng.busy_s"])
    out["groups.products_per_s"] = ratio(totals["groups.products"], totals["groups.mul_arrays_s"])
    out["counting.pairs_per_s"] = ratio(
        totals["counting.pairs"], totals["counting.xyz_s"] + totals["counting.ap3_s"] + totals["counting.power_s"]
    )
    out["ramsey.greedy_hit_frac"] = ratio(totals["ramsey.greedy_hits"], totals["ramsey.greedy_attempts"])
    return out
