"""Acceptance suite: one test per mandatory criterion, each printing a
PASS/FAIL line. All comparisons are exact rational equalities or strict
inequalities; the stated runtime budgets are asserted where given.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines, or `occufrac selftest` for the JSON form of the same checks.
"""

import pytest

from occufrac.selftest import run_criterion


def _check(number):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    budget = f" (budget {result.budget:.0f}s)" if result.budget else ""
    print(
        f"ACCEPTANCE {result.number:2d} {result.name}: {status} "
        f"in {result.seconds:.2f}s{budget} {result.details}"
    )
    assert result.passed, result.failures
    return result


def test_criterion_01_hardcore_lp_optimum():
    result = _check(1)
    assert result.seconds < 10


def test_criterion_02_hardcore_dual_certificate():
    _check(2)


def test_criterion_03_matching_lp_optimum():
    result = _check(3)
    assert result.seconds < 60


def test_criterion_04_matching_dual_certificate():
    _check(4)


def test_criterion_05_identity_suite():
    result = _check(5)
    assert result.seconds < 30


def test_criterion_06_corpus_occupancy_maxima():
    _check(6)


def test_criterion_07_tree_lower_bound_corpus():
    _check(7)


def test_criterion_08_correlation_suite():
    _check(8)


def test_criterion_09_given_size_suite():
    _check(9)


def test_criterion_10_oracle_consistency():
    _check(10)


def test_criterion_10_catches_wrong_recurrences(monkeypatch):
    # the one-pass oracle still cross-checks the recurrence values
    from fractions import Fraction

    import occufrac.selftest as selftest

    monkeypatch.setattr(selftest, "occupancy", lambda g, lam: Fraction(1, 3))
    monkeypatch.setattr(selftest, "edge_occupancy", lambda g, lam: Fraction(1, 3))
    result = selftest.run_criterion(10, quick=True)
    assert not result.passed
    kinds = {f.split()[1] for f in result.failures}
    assert kinds == {"vertex", "uncovered", "edge"}
