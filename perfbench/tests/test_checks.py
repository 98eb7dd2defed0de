import time
import types
from fractions import Fraction

import workloads
from occufrac import corpus


def _corrupt(module, name):
    """A view of `module` whose `name` returns the true value plus one."""
    view = types.SimpleNamespace(**vars(module))
    real = getattr(module, name)
    setattr(view, name, lambda *args, **kwargs: real(*args, **kwargs) + 1)
    return view


def test_correct_results_pass():
    ledger = workloads.Ledger()
    inputs = {"hardcore": [(2, Fraction(1, 2))], "matching": [(3, Fraction(2))]}
    workloads.run_certify(inputs, ledger)
    assert ledger.attempted == 3
    assert ledger.failures == []


def test_corrupted_expected_value_is_counted_as_a_failure(monkeypatch):
    monkeypatch.setattr(
        workloads, "polynomials", _corrupt(workloads.polynomials, "kdd_occupancy")
    )
    ledger = workloads.Ledger()
    inputs = {"hardcore": [(2, Fraction(1, 2)), (3, Fraction(3))], "matching": []}
    workloads.run_certify(inputs, ledger)
    assert ledger.attempted == 2
    assert len(ledger.failures) == 2
    assert ledger.failures[0].startswith("hardcore d=2 lam=1/2: LP optimum")


def test_corrupted_oracle_expectation_names_the_operation(monkeypatch):
    monkeypatch.setattr(
        workloads, "polynomials", _corrupt(workloads.polynomials, "edge_occupancy")
    )
    ledger = workloads.Ledger()
    g = dict(corpus.regular_corpus(8))["C6"]
    assert workloads._edge_average(g, Fraction(1)).startswith("edge average")
    ledger.check("edge oracle C6", lambda: workloads._edge_average(g, Fraction(1)))
    assert ledger.attempted == 1
    assert ledger.failures[0].startswith("edge oracle C6: edge average")


def test_an_exception_is_counted_as_a_failure():
    ledger = workloads.Ledger()
    ledger.check("raises", lambda: 1 // 0)
    ledger.check("holds", lambda: None)
    assert ledger.attempted == 2
    assert ledger.failures == ["raises: ZeroDivisionError: integer division or modulo by zero"]


def test_reference_clock_scales_wall_time_by_the_probe(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "probe_seconds", lambda: 2 * speed.PROBE_REF_S)
    clock = speed.ReferenceClock()
    clock.start()
    deadline = time.perf_counter() + 4 * speed.PROBE_INTERVAL_S
    while time.perf_counter() < deadline:
        pass
    clock.stop()
    assert len(clock.marks) >= 4  # start, timer probes, stop
    assert clock.wall_seconds() > 0
    assert abs(clock.reference_seconds() - clock.wall_seconds() / 2) < 1e-9
    assert clock.first_factor() == 0.5
