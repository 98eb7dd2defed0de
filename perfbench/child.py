"""One cold run of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Imports occufrac from `src/`, builds the seeded inputs, runs every
operation of the workload once and prints one JSON object on stdout. Its
`ready` stamp is `time.monotonic()` (system-wide on Linux) when set-up
ends, so the parent can measure set-up from the moment it spawned this
process. Run time is in wall seconds and in reference seconds (see
`speed.py`). With TRACE=1 the run records spans (see `spans.py`) and the
work counts computed beside them.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _states(oracle_calls) -> int:
    """Sum over oracle calls of the number of states enumerated: P_G(1)
    independent sets for the hard-core model, M_G(1) matchings otherwise."""
    from occufrac import polynomials

    poly = {"hardcore": polynomials.independence_poly, "matching": polynomials.matching_poly}
    cache: dict = {}
    total = 0
    for g, model in oracle_calls:
        if (g, model) not in cache:
            cache[g, model] = poly[model](g)(1)
        total += cache[g, model]
    return int(total)


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    import workloads
    from speed import ReferenceClock

    data = workloads.build_inputs(workload, seed)
    inputs = workloads.parse_inputs(workload, data)
    ready = time.monotonic()

    clock = ReferenceClock()
    tracer = None
    oracle_calls: list = []
    cells = 0
    if traced:
        from spans import Tracer

        def count_cells(program, *args, **kwargs):
            nonlocal cells
            cells += program.nrows * program.ncols

        def note_oracle(g, model, *args, **kwargs):
            oracle_calls.append((g, model))

        tracer = Tracer(
            {
                "lp.solve": count_cells,
                "polynomials.event_probability_oracle": note_oracle,
            },
            clock=clock.work_time,
        )
        tracer.install(clients=[workloads])

    ledger = workloads.Ledger()
    clock.start()
    workloads.RUNNERS[workload](inputs, ledger)
    clock.stop()
    wall_s = clock.wall_seconds()
    run_s = clock.reference_seconds()

    result = {
        "pid": os.getpid(),
        "traced": traced,
        "ready": ready,
        "setup_factor": clock.first_factor(),
        "wall_run_s": wall_s,
        "run_s": run_s,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "digest": workloads.digest(data),
    }
    if tracer is not None:
        tracer.uninstall()
        # self times in reference seconds, at the run's mean speed
        scale = run_s / wall_s
        result["self_s"] = {k: v * scale for k, v in tracer.self_s.items()}
        result["calls"] = dict(tracer.calls)
        result["module_self_s"] = {k: v * scale for k, v in tracer.module_self_s().items()}
        result["counts"] = {
            "lp.solve.cells": cells,
            "polynomials.event_probability_oracle.states": _states(oracle_calls),
        }
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
