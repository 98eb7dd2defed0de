"""Every public fugacity path goes through `exactmath.fugacity`: it rejects
lam <= 0 with one message and computes an int lam as the exact Fraction.

A new public function with a `lam` parameter in one of the modules below
fails `test_every_fugacity_function_has_a_call` until it gets a call in
CALLS, which the other tests then run through the gate. The Fraction
reference functions in `_oracles` that the differential tests compare the
integer-column builds against hold the same contract; REFERENCE_CALLS runs
them under the names of the package functions they replaced.

The degree d has a gate of its own, `exactmath.degree`: DEGREE_CALLS
reach it with a float and a bool, before and after the equal int was
asked, so no cached program answers them.
"""

import inspect
import numbers
import re
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import crowding, marginal_from_edge, marginal_from_neighbor, vacancy

from occufrac import bounds, hardcore, matching, polynomials
from occufrac.errors import DomainError
from occufrac.graphs import cycle
from occufrac.hardcore import NeighborhoodConfig, enumerate_configs
from occufrac.polynomials import kdd_independence_poly, kdd_matching_poly

GATE_MESSAGE = "fugacity must be positive"
MODULES = (polynomials, hardcore, matching, bounds)
ONE = Fraction(1)
C6 = cycle(6)


def _config():
    return enumerate_configs(2)[-1]  # the one class on 2 vertices with an edge


CALLS = {
    "polynomials.occupancy": lambda lam: polynomials.occupancy(C6, lam),
    "polynomials.edge_occupancy": lambda lam: polynomials.edge_occupancy(C6, lam),
    "polynomials.kdd_occupancy": lambda lam: polynomials.kdd_occupancy(3, lam),
    "polynomials.kdd_edge_occupancy": lambda lam: polynomials.kdd_edge_occupancy(3, lam),
    "polynomials.size_distribution": lambda lam: polynomials.size_distribution(
        kdd_independence_poly(2), lam
    ),
    "polynomials.event_probability_oracle": lambda lam: polynomials.event_probability_oracle(
        C6, "hardcore", lam, lambda s: 0 in s
    ),
    "hardcore.objective_scale": lambda lam: hardcore.objective_scale(lam),
    "hardcore.build_primal": lambda lam: hardcore.build_primal(2, lam),
    "hardcore.solver_dual_for_certificate": lambda lam: hardcore.solver_dual_for_certificate(
        2, lam
    ),
    "hardcore.dual_certificate": lambda lam: hardcore.dual_certificate(2, lam),
    "hardcore.uncovered_count_distribution": lambda lam: hardcore.uncovered_count_distribution(
        C6, lam
    ),
    "hardcore.free_neighborhood_distribution": lambda lam: (
        hardcore.free_neighborhood_distribution(C6, lam)
    ),
    "hardcore.objective_value": lambda lam: hardcore.objective_value(
        hardcore.free_neighborhood_distribution(C6, ONE), 2, lam
    ),
    "matching.conditional_partition": lambda lam: matching.conditional_partition(1, 1, 0, lam),
    "matching.local_edge_occupancy": lambda lam: matching.local_edge_occupancy(
        1, 1, 0, lam, 3
    ),
    "matching.build_primal": lambda lam: matching.build_primal(3, lam),
    "matching.dual_row_prices": lambda lam: matching.dual_row_prices(3, lam),
    "matching.slack_profile_explicit": lambda lam: matching.slack_profile_explicit(
        1, lam, [kdd_matching_poly(s)(ONE) for s in range(4)]
    ),
    "matching.check_slack_profile": lambda lam: matching.check_slack_profile(3, lam),
    "matching.check_dual_constraints": lambda lam: matching.check_dual_constraints(3, lam),
    "matching.check_monotone_profile": lambda lam: matching.check_monotone_profile(3, lam),
    "matching.edge_neighborhood_distribution": lambda lam: (
        matching.edge_neighborhood_distribution(C6, lam)
    ),
    "matching.objective_value": lambda lam: matching.objective_value(
        matching.edge_neighborhood_distribution(C6, ONE), 2, lam
    ),
    "bounds.tree_occupancy": lambda lam: bounds.tree_occupancy(2, lam),
    "bounds.verify_lower_bound": lambda lam: bounds.verify_lower_bound(C6, lam),
    "bounds.fkg_check": lambda lam: bounds.fkg_check(C6, [0, 2], lam),
    "bounds.log_concavity_check": lambda lam: bounds.log_concavity_check(
        kdd_independence_poly(2), lam
    ),
    "bounds.variance_check": lambda lam: bounds.variance_check(2, lam),
}

REFERENCE_CALLS = {
    "NeighborhoodConfig.vacancy": lambda lam: vacancy(_config(), lam),
    "NeighborhoodConfig.crowding": lambda lam: crowding(_config(), lam, 2),
    "matching.marginal_from_edge": lambda lam: marginal_from_edge(1, 1, 0, lam, 3),
    "matching.marginal_from_neighbor": lambda lam: marginal_from_neighbor(1, 1, 0, lam, 3),
}
GATED = {**CALLS, **REFERENCE_CALLS}

DEGREE_CALLS = {
    "hardcore.build_primal": lambda d: hardcore.build_primal(d, ONE),
    "hardcore.solver_dual_for_certificate": lambda d: hardcore.solver_dual_for_certificate(d, 1),
    "matching.build_primal": lambda d: matching.build_primal(d, ONE),
    "matching.check_dual_constraints": lambda d: matching.check_dual_constraints(d, ONE),
    "matching.local_edge_occupancy": lambda d: matching.local_edge_occupancy(0, 0, 0, 1, d),
    "polynomials.kdd_occupancy": lambda d: polynomials.kdd_occupancy(d, 1),
    "bounds.tree_occupancy": lambda d: bounds.tree_occupancy(d, 1, Fraction(1, 100)),
}


def _takes_lam(fn) -> bool:
    return "lam" in inspect.signature(fn).parameters


def _fugacity_functions():
    """Public functions of MODULES, and NeighborhoodConfig methods, that
    take a `lam` parameter, named module.function or class.method."""
    found = set()
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__ and _takes_lam(obj):
                found.add(f"{short}.{name}")
    for name, obj in vars(NeighborhoodConfig).items():
        if not name.startswith("_") and inspect.isfunction(obj) and _takes_lam(obj):
            found.add(f"NeighborhoodConfig.{name}")
    return found


def _scalars(result):
    """The numbers in a result: itself, or the entries of a flat sequence
    or dict; booleans are flags, not numbers, and a record (a named tuple)
    is one result, not a sequence."""
    if isinstance(result, dict):
        items = list(result.values())
    elif isinstance(result, (list, tuple)) and not hasattr(result, "_fields"):
        items = list(result)
    else:
        items = [result]
    return [x for x in items if isinstance(x, numbers.Number) and not isinstance(x, bool)]


def test_gate_message_is_written_once():
    package = Path(polynomials.__file__).parent
    hits = sum(path.read_text().count(GATE_MESSAGE) for path in package.glob("*.py"))
    assert hits == 1


def test_every_fugacity_function_has_a_call():
    assert _fugacity_functions() == set(CALLS)


def test_reference_functions_left_the_package():
    assert not set(REFERENCE_CALLS) & _fugacity_functions()


@pytest.mark.parametrize("name", sorted(GATED))
@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_fugacity_is_rejected(name, bad):
    with pytest.raises(DomainError, match=f"^{GATE_MESSAGE}$"):
        GATED[name](bad)


@pytest.mark.parametrize("name", sorted(GATED))
def test_int_fugacity_is_the_exact_fraction(name):
    from_int = GATED[name](1)
    hardcore.build_primal.cache_clear()  # 1 and Fraction(1) share a cache entry
    matching.build_primal.cache_clear()
    assert from_int == GATED[name](ONE)
    assert all(type(x) is Fraction for x in _scalars(from_int))


@pytest.mark.parametrize("name", sorted(DEGREE_CALLS))
@pytest.mark.parametrize("bad", [3.0, True])
def test_a_degree_that_is_no_int_is_rejected(name, bad):
    message = f"^{re.escape(f'd {bad!r} is not an int')}$"
    hardcore.build_primal.cache_clear()
    matching.build_primal.cache_clear()
    with pytest.raises(DomainError, match=message):
        DEGREE_CALLS[name](bad)
    DEGREE_CALLS[name](3)  # the equal int of 3.0, now cached where there is a cache
    with pytest.raises(DomainError, match=message):
        DEGREE_CALLS[name](bad)
    hardcore.build_primal.cache_clear()
    matching.build_primal.cache_clear()
