"""The slack-profile pass and its row prices work in integers at lam = p/q;
the Fraction pass they replaced is kept in `_oracles` as
`reference_slack_profile`, and every value returned must equal its
Fraction twin: prices, optimum, profile, increments and crude pairs, over
d = 2..30 at the grid and at seeded 50-digit fugacities."""

import random
import time
from fractions import Fraction

import pytest

from _oracles import (
    reference_edge_occupancy,
    reference_profile_explicit,
    reference_profile_value,
    reference_row_prices,
    reference_slack_profile,
)
from occufrac.cli import FUGACITY_DIGITS
from occufrac.errors import CertificateError, DomainError
from occufrac.matching import (
    MAX_D,
    check_dual_constraints,
    check_slack_profile,
    dual_row_prices,
    slack_profile,
    slack_profile_explicit,
)
from occufrac.polynomials import kdd_edge_occupancy, kdd_matching_poly

GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(2), Fraction(4))
LONG_LAM = Fraction(10**FUGACITY_DIGITS - 1, 10**FUGACITY_DIGITS // 7)


def _long_fugacities(seed: int, count: int):
    """`count` fugacities whose numerator and denominator have 50 digits."""
    rng = random.Random(seed)
    low, high = 10 ** (FUGACITY_DIGITS - 1), 10**FUGACITY_DIGITS - 1
    return [Fraction(rng.randint(low, high), rng.randint(low, high)) for _ in range(count)]


@pytest.mark.parametrize("lam", GRID, ids=str)
def test_pass_equals_the_fraction_pass_on_the_grid(lam):
    for d in range(2, MAX_D + 1):
        assert check_slack_profile(d, lam) == reference_slack_profile(d, lam), d


@pytest.mark.parametrize("seed", [1, 2])
def test_pass_equals_the_fraction_pass_at_long_fugacities(seed):
    for lam in _long_fugacities(seed, 2):
        for d in range(2, MAX_D + 1):
            assert check_slack_profile(d, lam) == reference_slack_profile(d, lam), (d, lam)


def test_each_profile_function_equals_its_fraction_twin():
    for lam in (*GRID, *_long_fugacities(3, 1)):
        for d in (2, 3, 5, 9, 17, 30):
            duals = dual_row_prices(d, lam)
            assert duals == reference_row_prices(d, lam)
            assert duals.optimum == kdd_edge_occupancy(d, lam) == reference_edge_occupancy(d, lam)
            kdd = [kdd_matching_poly(s)(lam) for s in range(d + 1)]
            for t in range(d):
                assert slack_profile(t, duals) == reference_profile_value(t, duals)
                explicit = slack_profile_explicit(t, lam, kdd)
                assert explicit == reference_profile_explicit(t, lam, kdd)
                assert type(explicit) is Fraction


def test_profile_of_prices_off_the_integer_denominator():
    # slack_profile takes any duals, not only those of dual_row_prices
    rng = random.Random(5)
    for d in (2, 4, 7):
        duals = dual_row_prices(d, Fraction(3, 2))
        prices = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(d))
        moved = duals._replace(prices=prices, optimum=Fraction(rng.randint(1, 99), 97))
        for t in range(d):
            assert slack_profile(t, moved) == reference_profile_value(t, moved)


def test_a_price_off_its_denominator_fails_the_exact_solve(monkeypatch):
    # an optimum moved by 1/K_d keeps the denominator K_d, but the solve for
    # price_2 at the (3, 3, 0) constraint no longer divides by 9 p exactly
    import occufrac.matching as mod

    d, lam = 4, Fraction(7, 5)
    top = kdd_matching_poly(d).homogeneous(7, 5, d)
    moved = kdd_edge_occupancy(d, lam) + Fraction(1, top)
    monkeypatch.setattr(mod, "kdd_edge_occupancy", lambda d, lam: moved)
    with pytest.raises(CertificateError) as failed:
        dual_row_prices(d, lam)
    message = "diagonal constraint 3 puts price_2 off the denominator q^(d+1) M_d"
    assert failed.value.args == (message, 3)


@pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1)])
def test_a_profile_index_that_is_no_int_is_rejected(bad):
    duals = dual_row_prices(3, Fraction(1))
    kdd = [kdd_matching_poly(s)(Fraction(1)) for s in range(4)]
    message = f"t {bad!r} is not an int"
    with pytest.raises(DomainError) as raised:
        slack_profile(bad, duals)
    assert str(raised.value) == message
    with pytest.raises(DomainError) as raised:
        slack_profile_explicit(bad, Fraction(1), kdd)
    assert str(raised.value) == message


def test_a_profile_index_out_of_range_is_rejected():
    duals = dual_row_prices(3, Fraction(1))
    kdd = [kdd_matching_poly(s)(Fraction(1)) for s in range(4)]
    for t in (-1, 3):
        with pytest.raises(DomainError, match=r"^slack profile defined for 0 <= t <= 2$"):
            slack_profile(t, duals)
        with pytest.raises(DomainError, match=r"^slack profile defined for 0 <= t <= 2$"):
            slack_profile_explicit(t, Fraction(1), kdd)


def test_closed_form_rejects_values_that_are_no_matching_polynomial_values():
    # M_s(p/q) is an integer over q^s; 1/3 over q = 2 cannot be one
    lam = Fraction(1, 2)
    kdd = [kdd_matching_poly(s)(lam) for s in range(4)]
    kdd[1] = Fraction(1, 3)
    with pytest.raises(DomainError, match=r"^kdd\[1\] = 1/3 is not an integer over q\^1$"):
        slack_profile_explicit(2, lam, kdd)


def test_kdd_edge_occupancy_needs_a_positive_degree():
    for d in (0, -1):
        with pytest.raises(DomainError) as raised:
            kdd_edge_occupancy(d, Fraction(1))
        assert str(raised.value) == "need d >= 1"
    assert kdd_edge_occupancy(1, Fraction(1)) == Fraction(1, 2)


@pytest.mark.parametrize("lam", [LONG_LAM, *_long_fugacities(4, 1)], ids=["long", "seeded"])
def test_pass_and_certificate_are_fast_at_long_fugacities(lam):
    # the largest certified degree for the pass, and the certificate with
    # its program, each well inside 2 s at a 50-digit fugacity
    started = time.perf_counter()
    checked = check_slack_profile(MAX_D, lam)
    assert time.perf_counter() - started < 2
    assert len(checked["increments"]) == MAX_D - 2
    started = time.perf_counter()
    report = check_dual_constraints(12, lam)
    assert time.perf_counter() - started < 2
    assert report.optimum == reference_edge_occupancy(12, lam)
