"""The result records: named tuples for the plain ones and small explicit
classes for LinearProgram, SizeDistribution and CriterionResult. Their
reprs, equality, hashing and immutability are pinned here, and so is what
a fresh interpreter loads to import the package."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from occufrac.bounds import CorrelationVerdict, GivenSizeVerdict, LowerBoundVerdict, TreeOccupancy
from occufrac.errors import DomainError, StructureError
from occufrac.hardcore import CertificateReport, enumerate_configs
from occufrac.lp import DualSlackReport, LinearProgram, LPSolution
from occufrac.matching import MatchingDuals
from occufrac.polynomials import SizeDistribution
from occufrac.selftest import CriterionResult

F = Fraction
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "occufrac"

# (record, its repr); each hashable record hashes as the tuple of its fields
RECORDS = [
    (
        LinearProgram(((1, 2, (3, 4)),), (F(1), F(1, 2))),
        "LinearProgram(integer_columns=((1, 2, (3, 4)),), rhs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        LPSolution("infeasible"),
        "LPSolution(status='infeasible', value=None, primal=None, basis=None, dual=None)",
    ),
    (
        LPSolution("optimal", F(1, 2), (F(1),), (0,), (F(1, 2),)),
        "LPSolution(status='optimal', value=Fraction(1, 2), primal=(Fraction(1, 1),),"
        " basis=(0,), dual=(Fraction(1, 2),))",
    ),
    (
        DualSlackReport((F(0),), True, (0,), F(3, 4)),
        "DualSlackReport(slacks=(Fraction(0, 1),), feasible=True, tight=(0,),"
        " dual_objective=Fraction(3, 4))",
    ),
    (
        SizeDistribution((F(1, 3), F(2, 3)), F(2)),
        "SizeDistribution(probabilities=(Fraction(1, 3), Fraction(2, 3)), fugacity=Fraction(2, 1))",
    ),
    (
        CertificateReport({"a": 1}, (("0v0e#0", F(0)),), ("0v0e#0",), F(1), (F(0), F(1))),
        "CertificateReport(dual_values={'a': 1}, slacks=(('0v0e#0', Fraction(0, 1)),),"
        " tight=('0v0e#0',), optimum=Fraction(1, 1), profile=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    (
        MatchingDuals(3, F(1), (F(1), F(2), F(0)), F(1, 3)),
        "MatchingDuals(d=3, lam=Fraction(1, 1), prices=(Fraction(1, 1), Fraction(2, 1),"
        " Fraction(0, 1)), optimum=Fraction(1, 3))",
    ),
    (
        TreeOccupancy(3, F(1), F(1, 4), F(1, 3)),
        "TreeOccupancy(d=3, lam=Fraction(1, 1), alpha_low=Fraction(1, 4), alpha_high=Fraction(1, 3))",
    ),
    (
        LowerBoundVerdict("pass", F(1, 3), F(1, 7)),
        "LowerBoundVerdict(status='pass', alpha=Fraction(1, 3), gap=Fraction(1, 7))",
    ),
    (
        CorrelationVerdict(F(1, 3), F(1, 9), True, True),
        "CorrelationVerdict(joint=Fraction(1, 3), product=Fraction(1, 9), strict_expected=True,"
        " ok=True)",
    ),
    (
        GivenSizeVerdict(False, True),
        "GivenSizeVerdict(applicable=False, ok=True, d=None, failures=())",
    ),
    (
        enumerate_configs(2)[3],
        "NeighborhoodConfig(index=3, graph=Graph(n=2, edges=[(0, 1)]), key=b'\\x02\\x80',"
        " poly=IntPolynomial(1 + 2*x), label='2v1e#3')",
    ),
    (
        CriterionResult(2, "y", False, 1.25, 10.0, ["f"], {"k": 1}),
        "CriterionResult(number=2, name='y', passed=False, seconds=1.25, budget=10.0,"
        " failures=['f'], details={'k': 1})",
    ),
]
NAMES = [type(record).__name__ for record, _ in RECORDS]
# each record's class name, numbered where a class has several records
IDS = [
    f"{name}{NAMES[:k].count(name)}" if NAMES.count(name) > 1 else name
    for k, name in enumerate(NAMES)
]


def _names(record):
    if isinstance(record, LinearProgram):
        return ("integer_columns", "rhs")
    return getattr(record, "_fields", None) or type(record).__slots__


def _fields(record):
    return tuple(getattr(record, name) for name in _names(record))


def _rebuilt(record):
    if isinstance(record, LinearProgram):
        return LinearProgram(*_fields(record))
    return type(record)(*_fields(record))


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_keep_their_reprs(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_are_equal_by_fields_and_hash_as_them(record, text):
    twin = _rebuilt(record)
    assert twin == record and not twin != record
    assert record != object()
    if isinstance(record, (CertificateReport, CriterionResult)):  # a dict or list field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(_fields(record))


@pytest.mark.parametrize("record, text", RECORDS[:-1], ids=IDS[:-1])
def test_frozen_records_refuse_assignment(record, text):
    name = _names(record)[0]
    before = _fields(record)
    for change in (
        lambda: setattr(record, name, 0),
        lambda: setattr(record, "extra", 0),
        lambda: delattr(record, name),
    ):
        with pytest.raises(AttributeError):
            change()
    assert _fields(record) == before


def test_explicit_classes_compare_only_within_their_class():
    program = RECORDS[0][0]
    assert program != (program.integer_columns, program.rhs)
    dist = SizeDistribution((F(1),), F(1))
    assert dist != ((F(1),), F(1))
    result = CriterionResult(1, "x", True, 0.5)
    assert result != (1, "x", True, 0.5, None, [], {})


def test_criterion_results_are_mutable_with_fresh_defaults():
    first, second = CriterionResult(1, "x", True, 0.5), CriterionResult(1, "x", True, 0.5)
    first.failures.append("late")
    first.passed = False
    assert second.failures == [] and second.details == {} and second.passed
    assert first != second


def test_explicit_classes_still_validate():
    with pytest.raises(DomainError, match="^size distribution must sum to 1$"):
        SizeDistribution((F(1, 3),), F(1))
    with pytest.raises(StructureError, match="^column 0 has 1 entries, need 2$"):
        LinearProgram(((1, 0, (1,)),), (F(1), F(0)))
    with pytest.raises(StructureError, match="^rhs row 0 is 0.5, not an int or a Fraction$"):
        LinearProgram((), (0.5,))


def test_linear_program_caches_its_derived_views():
    program = LinearProgram(((2, 1, (1, 3)), (2, 1, (1, 3))), (F(1), F(0)))
    assert program.column_groups == ((0, 1),) and program.column_groups is program.column_groups
    assert program.objective == (F(1, 2), F(1, 2))
    assert program.rows == ((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))


def test_fresh_import_loads_neither_dataclasses_nor_inspect():
    # every submodule, in a fresh isolated interpreter: the package builds
    # its records without dataclasses, and nothing it loads pulls in inspect
    names = sorted(f"occufrac.{path.stem}" for path in PACKAGE.glob("*.py"))
    names.remove("occufrac.__init__")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        f"for name in ['occufrac.cli'] + {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
