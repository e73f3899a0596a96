"""Canonical serialization of experiment reports.

Reports must be byte-identical across runs for identical (config, seed) in
single-threaded mode, so serialization is canonical JSON (sorted keys,
fixed separators, shortest round-trip floats) and timing is recorded as 0
unless timing capture is explicitly enabled.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

TOOL_VERSION = "0.1.0"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    # before the tuple test: a NamedTuple record serialises through its to_dict
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def canonical_json(payload: Any) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class PlainRecord:
    """``repr`` and ``==`` over the names in ``_fields``, as a dataclass
    writes them, for the records that are not NamedTuples: those that check
    their fields or change after construction.  Both cost a fraction of a
    dataclass to define at import."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None  # equal records may differ later, as with a mutable dataclass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_field_equal, self._values(), other._values()))


def _field_equal(a: Any, b: Any) -> bool:
    """Tuple equality of one field: ``a is b or a == b``, except that numpy
    arrays, whose ``==`` gives an array, compare by shape and entries."""
    if a is b:
        return True
    if hasattr(a, "__array__") or hasattr(b, "__array__"):
        import numpy as np  # already loaded by whatever built the array

        return bool(np.array_equal(a, b))
    return bool(a == b)


class ExperimentReport(PlainRecord):
    """One experiment: the config that produced it, per-instance records,
    and aggregate statistics.  Everything needed to re-run any single
    instance (group spec, set specs, derived seed) lives in its record.
    A plain class: recipes fill its instances and aggregates in place."""

    _fields = ("recipe", "config", "instances", "aggregates", "seed", "elapsed_ms", "tool_version")

    def __init__(
        self,
        recipe: str,
        config: Dict[str, Any],
        instances: Optional[List[Dict[str, Any]]] = None,
        aggregates: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        elapsed_ms: int = 0,
        tool_version: str = TOOL_VERSION,
    ) -> None:
        self.recipe = recipe
        self.config = config
        self.instances = [] if instances is None else instances
        self.aggregates = {} if aggregates is None else aggregates
        self.seed = seed
        self.elapsed_ms = elapsed_ms
        self.tool_version = tool_version

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": "grplab",
            "tool_version": self.tool_version,
            "recipe": self.recipe,
            "config": self.config,
            "seed": self.seed,
            "instances": self.instances,
            "aggregates": self.aggregates,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def csv_rows(self) -> List[Dict[str, Any]]:
        return [_flatten(inst) for inst in self.instances]


def _flatten(record: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        value = _jsonable(value)
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value, separators=(",", ":"))
        else:
            flat[name] = value
    return flat


def rows_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """Render rows as CSV; columns are the sorted union of keys, so output
    is stable for a fixed schema."""
    import csv  # only CSV output loads the csv module
    import io

    columns = sorted({key for row in rows for key in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()
