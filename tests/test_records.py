"""The record classes, one contract table.

Every value record of grplab is a ``typing.NamedTuple``; the three that check
or change their fields after construction (``Coloring``, ``ExperimentReport``
and ``ExperimentConfig``) are plain classes.  Each row builds one record by
position and by keyword, as the call sites do, and checks that the two are
equal, that equal records hash alike where their fields are hashable, and
that an immutable record refuses assignment.  ``PINS`` holds the ``repr`` of
each record and the canonical JSON of its ``to_dict``, as the dataclasses
these classes replaced printed them.  The JSON pins guard
``reports._jsonable``, which must read a record's ``to_dict`` before it
treats the record as a tuple.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from grplab.counting import ConvolutionIdentityResult, CountReport, FiberFunction
from grplab.groups import (
    PSL2,
    ConjugacyClasses,
    Cyclic,
    DirectProduct,
    Permutation,
    TableSource,
    build_group,
    parse_group_spec,
)
from grplab.lab import ExperimentConfig
from grplab.ramsey import AdversarialSearchResult, Coloring, Exhausted, FailureTrace, SchurReport, TupleWitness
from grplab.regularity import RegularityVerdict
from grplab.reports import ExperimentReport, canonical_json
from grplab.sets import ExplicitSet, GapSet, GroupSubset, Interval, RandomSet, SubgroupSet
from grplab.spectral import DegreeProfile

Z5 = build_group("Z/5")
COLORS = np.array([0, 1, 1, 0, 1], dtype=np.int64)
CLASS_OF = np.arange(5, dtype=np.int64)
DOMAIN = GroupSubset.from_indices(Z5, [1, 2])
REPORT = CountReport("xyz", 3, Fraction(8), 1, "CayleyConvolution")
POWER = CountReport("power", 4, Fraction(4), 2, "BruteForce", {"torsion_free": True})
COLORING = Coloring(Z5, COLORS, 2)
PRODUCTS = {(1,): 1, (2,): 2, (1, 2): 3}
CONFIG = {"recipe": "schur", "seed": 3}

# name, built by position, built by keyword, immutable, hashable; an
# unhashable record raises TypeError on hash, as its dataclass did
RECORDS = [
    ("Cyclic", lambda: Cyclic(5), lambda: Cyclic(n=5), True, True),
    ("DirectProduct", lambda: DirectProduct((Cyclic(2), Cyclic(3))),
     lambda: DirectProduct(factors=(Cyclic(2), Cyclic(3))), True, True),
    ("PSL2", lambda: PSL2(7), lambda: PSL2(q=7), True, True),
    ("Permutation", lambda: Permutation((((1, 2, 3),), ((1, 2),))),
     lambda: Permutation(generators=(((1, 2, 3),), ((1, 2),))), True, True),
    ("TableSource", lambda: TableSource("t.csv"), lambda: TableSource(path="t.csv"), True, True),
    ("ConjugacyClasses", lambda: ConjugacyClasses(((0,), (1, 2)), CLASS_OF),
     lambda: ConjugacyClasses(partition=((0,), (1, 2)), class_of=CLASS_OF), True, False),
    ("Interval", lambda: Interval(0, 5), lambda: Interval(lo=0, length=5), True, True),
    ("GapSet", lambda: GapSet(1, (2, 3), (4, 5)), lambda: GapSet(base=1, steps=(2, 3), lens=(4, 5)), True, True),
    ("RandomSet", lambda: RandomSet(0.5, 7), lambda: RandomSet(density=0.5, seed=7), True, True),
    ("SubgroupSet", lambda: SubgroupSet((1, 2)), lambda: SubgroupSet(generators=(1, 2)), True, True),
    ("ExplicitSet", lambda: ExplicitSet((0, 3)), lambda: ExplicitSet(indices=(0, 3)), True, True),
    ("CountReport", lambda: CountReport("xyz", 3, Fraction(8), 1, "CayleyConvolution"),
     lambda: CountReport(equation="xyz", count=3, normalizer=Fraction(8), degenerate_count=1,
                         engine="CayleyConvolution", extras={}), True, False),
    ("CountReport-extras", lambda: CountReport("power", 4, Fraction(4), 2, "BruteForce", {"torsion_free": True}),
     lambda: CountReport(equation="power", count=4, normalizer=Fraction(4), degenerate_count=2,
                         engine="BruteForce", extras={"torsion_free": True}), True, False),
    ("FiberFunction", lambda: FiberFunction(DOMAIN, (1, 2), 1),
     lambda: FiberFunction(domain=DOMAIN, mapping=(1, 2), fiber_bound=1), True, True),
    ("ConvolutionIdentityResult", lambda: ConvolutionIdentityResult(6, 6, 4),
     lambda: ConvolutionIdentityResult(lhs=6, rhs=6, translate_count=4), True, True),
    ("DegreeProfile", lambda: DegreeProfile((1, 1, 2), 3, 2),
     lambda: DegreeProfile(degrees=(1, 1, 2), class_count=3, abelianization_order=2), True, True),
    ("ExperimentReport", lambda: ExperimentReport("schur", CONFIG, [{"a": 1}], {"b": 2}, 3, 0, "0.1.0"),
     lambda: ExperimentReport(recipe="schur", config=CONFIG, instances=[{"a": 1}], aggregates={"b": 2}, seed=3),
     False, False),
    ("ExperimentReport-defaults", lambda: ExperimentReport("schur", CONFIG),
     lambda: ExperimentReport(recipe="schur", config=CONFIG), False, False),
    ("Coloring", lambda: Coloring(Z5, COLORS, 2), lambda: Coloring(group=Z5, color_of=COLORS, k=2), True, False),
    ("SchurReport", lambda: SchurReport((REPORT, POWER), 1), lambda: SchurReport(per_color=(REPORT, POWER), max_color=1),
     True, False),
    ("AdversarialSearchResult", lambda: AdversarialSearchResult(COLORING, 3, (3, 1), 2, 40),
     lambda: AdversarialSearchResult(coloring=COLORING, max_count=3, counts=(3, 1), restarts=2, iterations_used=40),
     True, False),
    ("TupleWitness", lambda: TupleWitness((1, 2), 0, PRODUCTS),
     lambda: TupleWitness(elements=(1, 2), color=0, products=PRODUCTS), True, False),
    ("FailureTrace", lambda: FailureTrace((1,), (5, 2), 2),
     lambda: FailureTrace(chosen=(1,), survivor_sizes=(5, 2), failed_at_step=2), True, True),
    ("Exhausted", lambda: Exhausted(True), lambda: Exhausted(budget_hit=True), True, True),
    ("RegularityVerdict", lambda: RegularityVerdict("violated", None, (((1, 2),))),
     lambda: RegularityVerdict("violated", witness=(((1, 2),))), True, True),
    ("RegularityVerdict-samples", lambda: RegularityVerdict("no_violation_found", 500),
     lambda: RegularityVerdict("no_violation_found", samples=500), True, True),
    ("ExperimentConfig",
     lambda: ExperimentConfig("schur", ["Z/12"], ["interval:0,3"], {"k": 2}, 5, 1, "csv", True, {"seed": [1, 2]}),
     lambda: ExperimentConfig(recipe="schur", groups=["Z/12"], sets=["interval:0,3"], params={"k": 2}, seed=5,
                              format="csv", timing=True, grid={"seed": [1, 2]}), False, False),
    ("ExperimentConfig-defaults", lambda: ExperimentConfig("growth-profile"),
     lambda: ExperimentConfig(recipe="growth-profile"), False, False),
]

# the repr, and the canonical JSON of to_dict (None: the record has none), of
# each row's record, recorded from the dataclasses
PINS = {
    'Cyclic': (
        'Cyclic(n=5)',
        None,
    ),
    'DirectProduct': (
        'DirectProduct(factors=(Cyclic(n=2), Cyclic(n=3)))',
        None,
    ),
    'PSL2': (
        'PSL2(q=7)',
        None,
    ),
    'Permutation': (
        'Permutation(generators=(((1, 2, 3),), ((1, 2),)))',
        None,
    ),
    'TableSource': (
        "TableSource(path='t.csv')",
        None,
    ),
    'ConjugacyClasses': (
        'ConjugacyClasses(partition=((0,), (1, 2)), class_of=array([0, 1, 2, 3, 4]))',
        None,
    ),
    'Interval': (
        'Interval(lo=0, length=5)',
        None,
    ),
    'GapSet': (
        'GapSet(base=1, steps=(2, 3), lens=(4, 5))',
        None,
    ),
    'RandomSet': (
        'RandomSet(density=0.5, seed=7)',
        None,
    ),
    'SubgroupSet': (
        'SubgroupSet(generators=(1, 2))',
        None,
    ),
    'ExplicitSet': (
        'ExplicitSet(indices=(0, 3))',
        None,
    ),
    'CountReport': (
        "CountReport(equation='xyz', count=3, normalizer=Fraction(8, 1), degenerate_count=1, engine='CayleyConvolution', extras={})",
        '{"count":3,"degenerate":1,"engine":"CayleyConvolution","equation":"xyz","normalizer_den":1,"normalizer_num":8,"ratio":0.375}\n',
    ),
    'CountReport-extras': (
        "CountReport(equation='power', count=4, normalizer=Fraction(4, 1), degenerate_count=2, engine='BruteForce', extras={'torsion_free': True})",
        '{"count":4,"degenerate":2,"engine":"BruteForce","equation":"power","normalizer_den":1,"normalizer_num":4,"ratio":1.0,"torsion_free":true}\n',
    ),
    'FiberFunction': (
        'FiberFunction(domain=<GroupSubset [1, 2] of Z/5>, mapping=(1, 2), fiber_bound=1)',
        None,
    ),
    'ConvolutionIdentityResult': (
        'ConvolutionIdentityResult(lhs=6, rhs=6, translate_count=4)',
        '{"lhs":6,"ok":true,"rhs":6,"translate_count":4}\n',
    ),
    'DegreeProfile': (
        'DegreeProfile(degrees=(1, 1, 2), class_count=3, abelianization_order=2)',
        '{"abelianization_order":2,"class_count":3,"degrees":[1,1,2]}\n',
    ),
    'ExperimentReport': (
        "ExperimentReport(recipe='schur', config={'recipe': 'schur', 'seed': 3}, instances=[{'a': 1}], aggregates={'b': 2}, seed=3, elapsed_ms=0, tool_version='0.1.0')",
        '{"aggregates":{"b":2},"config":{"recipe":"schur","seed":3},"elapsed_ms":0,"instances":[{"a":1}],"recipe":"schur","seed":3,"tool":"grplab","tool_version":"0.1.0"}\n',
    ),
    'ExperimentReport-defaults': (
        "ExperimentReport(recipe='schur', config={'recipe': 'schur', 'seed': 3}, instances=[], aggregates={}, seed=0, elapsed_ms=0, tool_version='0.1.0')",
        '{"aggregates":{},"config":{"recipe":"schur","seed":3},"elapsed_ms":0,"instances":[],"recipe":"schur","seed":0,"tool":"grplab","tool_version":"0.1.0"}\n',
    ),
    'Coloring': (
        'Coloring(group=<FiniteGroup Z/5 order=5>, color_of=array([0, 1, 1, 0, 1]), k=2)',
        None,
    ),
    'SchurReport': (
        "SchurReport(per_color=(CountReport(equation='xyz', count=3, normalizer=Fraction(8, 1), degenerate_count=1, engine='CayleyConvolution', extras={}), CountReport(equation='power', count=4, normalizer=Fraction(4, 1), degenerate_count=2, engine='BruteForce', extras={'torsion_free': True})), max_color=1)",
        '{"counts":[3,4],"max_color":1,"max_count":4,"per_color":[{"count":3,"degenerate":1,"engine":"CayleyConvolution","equation":"xyz","normalizer_den":1,"normalizer_num":8,"ratio":0.375},{"count":4,"degenerate":2,"engine":"BruteForce","equation":"power","normalizer_den":1,"normalizer_num":4,"ratio":1.0,"torsion_free":true}]}\n',
    ),
    'AdversarialSearchResult': (
        'AdversarialSearchResult(coloring=Coloring(group=<FiniteGroup Z/5 order=5>, color_of=array([0, 1, 1, 0, 1]), k=2), max_count=3, counts=(3, 1), restarts=2, iterations_used=40)',
        '{"coloring":{"colors":[0,1,1,0,1],"k":2},"counts":[3,1],"iterations_used":40,"max_count":3,"restarts":2}\n',
    ),
    'TupleWitness': (
        'TupleWitness(elements=(1, 2), color=0, products={(1,): 1, (2,): 2, (1, 2): 3})',
        '{"color":0,"elements":[1,2],"products":{"1":1,"1,2":3,"2":2}}\n',
    ),
    'FailureTrace': (
        'FailureTrace(chosen=(1,), survivor_sizes=(5, 2), failed_at_step=2)',
        '{"chosen":[1],"failed_at_step":2,"survivor_sizes":[5,2]}\n',
    ),
    'Exhausted': (
        'Exhausted(budget_hit=True)',
        '{"budget_hit":true,"exhausted":true}\n',
    ),
    'RegularityVerdict': (
        "RegularityVerdict(status='violated', samples=None, witness=((1, 2),))",
        '{"status":"violated","witness":[[1,2]]}\n',
    ),
    'RegularityVerdict-samples': (
        "RegularityVerdict(status='no_violation_found', samples=500, witness=None)",
        '{"samples":500,"status":"no_violation_found"}\n',
    ),
    'ExperimentConfig': (
        "ExperimentConfig(recipe='schur', groups=['Z/12'], sets=['interval:0,3'], params={'k': 2}, seed=5, threads=1, format='csv', timing=True, grid={'seed': [1, 2]})",
        '{"format":"csv","grid":{"seed":[1,2]},"groups":["Z/12"],"params":{"k":2},"recipe":"schur","seed":5,"sets":["interval:0,3"],"threads":1,"timing":true}\n',
    ),
    'ExperimentConfig-defaults': (
        "ExperimentConfig(recipe='growth-profile', groups=[], sets=[], params={}, seed=0, threads=1, format='json', timing=False, grid={})",
        '{"format":"json","grid":{},"groups":[],"params":{},"recipe":"growth-profile","seed":0,"sets":[],"threads":1,"timing":false}\n',
    ),
}


@pytest.mark.parametrize("name, by_position, by_keyword, immutable, hashable", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_contract(name, by_position, by_keyword, immutable, hashable):
    a, b = by_position(), by_keyword()
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = type(a)._fields[0]
    if immutable:
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
    else:
        setattr(a, field, "changed")
        assert getattr(a, field) == "changed" and a != b
    expected_repr, expected_json = PINS[name]
    assert repr(b) == expected_repr
    assert (canonical_json(b.to_dict()) if hasattr(b, "to_dict") else None) == expected_json
    if hasattr(b, "to_dict"):
        assert canonical_json(b) == expected_json  # through _jsonable


def test_the_records_cover_every_class():
    assert len({type(make()) for _, make, *_ in RECORDS}) == 24


def test_spec_records_compare_as_tuples():
    assert parse_group_spec("Z/5") == Cyclic(5)
    assert parse_group_spec("Z/2 x Z/3") == DirectProduct((Cyclic(2), Cyclic(3)))
    # no class check: equal fields are equal records (nothing keys on specs)
    assert Cyclic(5) == PSL2(5)
    assert str(Cyclic(5)) == "Z/5" and str(PSL2(5)) == "PSL2(5)"


def test_coloring_checks_and_freezes_its_colors():
    colors = np.array([0, 1, 1, 0, 1])
    c = Coloring(Z5, colors, 2)
    assert c.color_of.dtype == np.int64 and not c.color_of.flags.writeable
    with pytest.raises(ValueError):
        c.color_of[0] = 1
    from grplab.errors import MalformedSpec

    with pytest.raises(MalformedSpec, match="length"):
        Coloring(Z5, colors[:4], 2)
    with pytest.raises(MalformedSpec, match="0..k-1"):
        Coloring(Z5, colors, 1)


def test_records_holding_arrays_compare_their_entries():
    # equal fields in distinct arrays: == and != give one truth value each
    a, b = Coloring(Z5, COLORS, 2), Coloring(Z5, COLORS.copy(), 2)
    assert a == b and not a != b
    assert Coloring(Z5, COLORS, 2) != Coloring(Z5, 1 - COLORS, 2)
    assert Coloring(Z5, COLORS, 2) != Coloring(Z5, COLORS, 3)
    assert Coloring(Z5, COLORS, 2) != Coloring(build_group("Z/6"), np.append(COLORS, 0), 2)
    result = AdversarialSearchResult(a, 3, (3, 1), 2, 40)
    assert result == AdversarialSearchResult(b, 3, (3, 1), 2, 40)
    assert result != AdversarialSearchResult(Coloring(Z5, 1 - COLORS, 2), 3, (3, 1), 2, 40)


def test_conjugacy_classes_compare_their_entries():
    from grplab.groups import conjugacy_classes

    s3 = build_group("perm:(1 2 3);(1 2)")
    assert conjugacy_classes(s3) == conjugacy_classes(s3)
    assert not conjugacy_classes(s3) != conjugacy_classes(s3)
    assert conjugacy_classes(s3) != conjugacy_classes(build_group("Z/6"))
    same = ConjugacyClasses(((0,), (1, 2)), CLASS_OF.copy())
    assert ConjugacyClasses(((0,), (1, 2)), CLASS_OF) == same
    assert ConjugacyClasses(((0,), (1, 2)), CLASS_OF[::-1].copy()) != same
    assert ConjugacyClasses(((0,), (1,)), CLASS_OF) != same
