"""Every public fugacity path goes through `exactmath.fugacity`: it rejects
what is not an int, a Fraction or a float, and lam <= 0 with one message,
and computes an int lam as the exact Fraction.

A new public function with a `lam` parameter in one of the modules below
fails `test_every_fugacity_function_has_a_call` until it gets a call in
CALLS, which the other tests then run through the gate. The Fraction
reference functions in `_oracles` that the differential tests compare the
integer-column builds against hold the same contract; REFERENCE_CALLS runs
them under the names of the package functions they replaced.

The degree d has a gate of its own, `exactmath.degree`: DEGREE_CALLS
reach it with a float and a bool, before and after the equal int was
asked, so no cached program answers them. A new public function with a
`d` parameter fails `test_every_degree_function_has_a_call` until it gets
a call there. The vertex count n has `exactmath.vertex_count`, reached the
same way by VERTEX_COUNT_CALLS. Both also cover the graph builders of
`graphs`, and `hypercube`'s dimension k has the same int rule.
"""

import inspect
import numbers
import re
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import crowding, marginal_from_edge, marginal_from_neighbor, vacancy

from occufrac import bounds, graphs, hardcore, matching, polynomials
from occufrac.errors import DomainError
from occufrac.graphs import complete_bipartite, cycle, prism
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

K33 = complete_bipartite(3)

DEGREE_CALLS = {
    "polynomials.kdd_independence_poly": lambda d: polynomials.kdd_independence_poly(d),
    "polynomials.kdd_matching_poly": lambda d: polynomials.kdd_matching_poly(d),
    "polynomials.kdd_occupancy": lambda d: polynomials.kdd_occupancy(d, 1),
    "polynomials.kdd_edge_occupancy": lambda d: polynomials.kdd_edge_occupancy(d, 1),
    "hardcore.enumerate_configs": lambda d: hardcore.enumerate_configs(d),
    "hardcore.edgeless_config_index": lambda d: hardcore.edgeless_config_index(d),
    "hardcore.build_primal": lambda d: hardcore.build_primal(d, ONE),
    "hardcore.solver_dual_for_certificate": lambda d: hardcore.solver_dual_for_certificate(d, 1),
    "hardcore.dual_certificate": lambda d: hardcore.dual_certificate(d, ONE),
    "hardcore.ratio_gap_coefficients": lambda d: hardcore.ratio_gap_coefficients(
        _config().graph, d
    ),
    "hardcore.objective_value": lambda d: hardcore.objective_value(
        hardcore.free_neighborhood_distribution(K33, ONE), d, ONE
    ),
    "matching.enumerate_triples": lambda d: matching.enumerate_triples(d),
    "matching.local_edge_occupancy": lambda d: matching.local_edge_occupancy(0, 0, 0, 1, d),
    "matching.build_primal": lambda d: matching.build_primal(d, ONE),
    "matching.dual_row_prices": lambda d: matching.dual_row_prices(d, ONE),
    "matching.check_slack_profile": lambda d: matching.check_slack_profile(d, ONE),
    "matching.check_dual_constraints": lambda d: matching.check_dual_constraints(d, ONE),
    "matching.check_monotone_profile": lambda d: matching.check_monotone_profile(d, ONE),
    "matching.laguerre_identity_residual": lambda d: matching.laguerre_identity_residual(d),
    "matching.laguerre_identity_holds": lambda d: matching.laguerre_identity_holds(d),
    "matching.objective_value": lambda d: matching.objective_value(
        matching.edge_neighborhood_distribution(K33, ONE), d, ONE
    ),
    "bounds.tree_occupancy": lambda d: bounds.tree_occupancy(d, 1, Fraction(1, 100)),
    "bounds.uniqueness_threshold": lambda d: bounds.uniqueness_threshold(d),
    "bounds.mode_probability_bound_check": lambda d: bounds.mode_probability_bound_check(d, 12),
    "bounds.binomial_base_inequalities": lambda d: bounds.binomial_base_inequalities(d),
    "bounds.variance_check": lambda d: bounds.variance_check(d, 1),
    "bounds.ratio_conjecture_report": lambda d: bounds.ratio_conjecture_report(
        [("K33", K33), ("prism3", prism(3))], d, 6
    ),
    "graphs.complete_bipartite": lambda d: graphs.complete_bipartite(d),
    "graphs.kdd_union": lambda d: graphs.kdd_union(d, 12),
}


VERTEX_COUNT_CALLS = {
    "bounds.mode_probability_exceeds_half_inv_sqrt": lambda n: (
        bounds.mode_probability_exceeds_half_inv_sqrt(Fraction(1, 2), n)
    ),
    "bounds.mode_probability_bound_check": lambda n: bounds.mode_probability_bound_check(3, n),
    "bounds.ratio_conjecture_report": lambda n: bounds.ratio_conjecture_report(
        [("K33", K33), ("prism3", prism(3))], 3, n
    ),
    "graphs.kdd_union": lambda n: graphs.kdd_union(3, n),
    "graphs.cycle": lambda n: graphs.cycle(n),
    "graphs.complete": lambda n: graphs.complete(n),
    "graphs.prism": lambda n: graphs.prism(n),
    "graphs.isomorphism_classes": lambda n: graphs.isomorphism_classes(n),
}


def _takes(fn, parameter) -> bool:
    return parameter in inspect.signature(fn).parameters


def _public_functions(parameter, modules=MODULES):
    """Public functions of `modules` that take `parameter`, named
    module.function."""
    found = set()
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__ and _takes(obj, parameter):
                found.add(f"{short}.{name}")
    return found


def _fugacity_functions():
    """Public functions of MODULES, and NeighborhoodConfig methods, that
    take a `lam` parameter, named module.function or class.method."""
    found = _public_functions("lam")
    for name, obj in vars(NeighborhoodConfig).items():
        if not name.startswith("_") and inspect.isfunction(obj) and _takes(obj, "lam"):
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


def test_every_degree_function_has_a_call():
    assert _public_functions("d", (*MODULES, graphs)) == set(DEGREE_CALLS)


def test_reference_functions_left_the_package():
    assert not set(REFERENCE_CALLS) & _fugacity_functions()


@pytest.mark.parametrize("name", sorted(GATED))
@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_fugacity_is_rejected(name, bad):
    with pytest.raises(DomainError, match=f"^{GATE_MESSAGE}$"):
        GATED[name](bad)


@pytest.mark.parametrize("name", sorted(GATED))
@pytest.mark.parametrize("bad", ["1/2", True])
def test_a_fugacity_that_is_no_number_is_rejected(name, bad):
    # Fraction() would read both, as 1/2 and 1
    with pytest.raises(DomainError) as raised:
        GATED[name](bad)
    assert str(raised.value) == f"fugacity {bad!r} is not an int, a Fraction or a float"


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


@pytest.mark.parametrize("bad", [3.0, True])
def test_a_hypercube_dimension_that_is_no_int_is_rejected(bad):
    # True built a single edge, and 3.0 raised a bare TypeError
    with pytest.raises(DomainError) as raised:
        graphs.hypercube(bad)
    assert str(raised.value) == f"k {bad!r} is not an int"
    assert graphs.hypercube(3).n == 8


def test_every_vertex_count_function_has_a_call():
    assert _public_functions("n", (*MODULES, graphs)) == set(VERTEX_COUNT_CALLS)


@pytest.mark.parametrize("name", sorted(VERTEX_COUNT_CALLS))
@pytest.mark.parametrize("bad", [12.0, True])
def test_a_vertex_count_that_is_no_int_is_rejected(name, bad):
    message = f"vertex count {bad!r} is not an int"
    with pytest.raises(DomainError) as raised:
        VERTEX_COUNT_CALLS[name](bad)
    assert str(raised.value) == message
    VERTEX_COUNT_CALLS[name](6)  # the gate lets an int through
    with pytest.raises(DomainError) as raised:
        VERTEX_COUNT_CALLS[name](bad)
    assert str(raised.value) == message


def test_mode_probability_comparison_needs_an_int_vertex_count():
    # 4 n prob^2 > 1 was decided on a float n before the gate
    assert bounds.mode_probability_exceeds_half_inv_sqrt(Fraction(1, 2), 12)
    with pytest.raises(DomainError, match=r"^vertex count 12\.0 is not an int$"):
        bounds.mode_probability_exceeds_half_inv_sqrt(Fraction(1, 2), 12.0)
