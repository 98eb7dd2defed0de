"""The occufrac benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Byte-compiles the package, then spawns
fresh interpreters (`child.py`) one after another, each doing one cold run
of the workload on the inputs of `--seed`, until `--seconds` are used up
(at least MIN_RUNS of each kind). Checks every child's results and prints
one JSON line: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
its per-layer metrics with `--trace 1`, where traced and untraced children
alternate. A summary goes to stderr and every child's raw numbers are
appended to perfbench/runs/samples.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_RUNS = 3  # children of each kind per invocation, whatever --seconds says
DEADLINE_S = 170  # the whole invocation ends within this, or fails
SAMPLES = os.path.join(HERE, "runs", "samples.jsonl")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def spawn(workload: str, seed: int, traced: bool, timeout: float = DEADLINE_S) -> dict:
    """One cold run in a fresh interpreter; returns its parsed report plus
    the set-up and wall time seen from here."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise BenchmarkError(
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_setup_s"] = report.pop("ready") - spawned
    report["setup_s"] = report["wall_setup_s"] * report["setup_factor"]
    report["wall_s"] = wall
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> list:
    """Children until `seconds` are used: a new one starts only when the
    last one's wall time still fits, once every kind has MIN_RUNS. Raises
    subprocess.TimeoutExpired at `deadline` (a time.monotonic() value)."""
    kinds = (False, True) if trace else (False,)
    children: list = []
    start = time.monotonic()
    while True:
        traced = kinds[len(children) % len(kinds)]
        remaining = deadline - time.monotonic()
        children.append(spawn(workload, seed, traced, timeout=max(remaining, 0.001)))
        done = all(
            sum(1 for c in children if c["traced"] == k) >= MIN_RUNS for k in kinds
        )
        elapsed = time.monotonic() - start
        if done and elapsed + children[-1]["wall_s"] > seconds:
            return children


def tail(values: list):
    """The highest order statistic with at least ten samples above it, or
    None with fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else None


def consistency_problems(children: list) -> list:
    """Runs of one seed must each have a process of their own, see identical
    inputs and, when traced, make identical call counts and work counts."""
    problems = []
    if len({c["pid"] for c in children}) != len(children):
        problems.append("two runs shared a process")
    if len({c["digest"] for c in children}) != 1:
        problems.append("runs of one seed saw different inputs")
    if len({c["attempted"] for c in children}) != 1:
        problems.append("runs of one seed attempted different operations")
    traced = [c for c in children if c["traced"]]
    for key in ("calls", "counts"):
        if any(c[key] != traced[0][key] for c in traced[1:]):
            problems.append(f"traced runs disagree on {key}")
    return problems


def end_to_end(children: list, attempted: int, failed: int) -> dict:
    plain = [c for c in children if not c["traced"]]
    return {
        "run_s": statistics.median(c["run_s"] for c in plain),
        "setup_s": statistics.median(c["setup_s"] for c in plain),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(children: list, names) -> dict:
    """Medians over the traced children of each named span metric."""
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.median(c["run_s"] for c in traced) - statistics.median(
                c["run_s"] for c in plain
            )
        elif name in traced[0]["counts"]:
            value = traced[0]["counts"][name]
        else:
            span, _, field = name.rpartition(".")
            if field == "calls":
                value = traced[0]["calls"].get(span, 0)
            elif field != "self_s":
                raise BenchmarkError(f"no rule for per-layer metric {name!r}")
            elif "." in span:
                value = statistics.median(c["self_s"].get(span, 0.0) for c in traced)
            else:
                value = statistics.median(c["module_self_s"].get(span, 0.0) for c in traced)
        out[name] = value
    return out


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "occufrac", "__init__.py")):
        print("src/occufrac not found: run from the root of an occufrac checkout",
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    # byte-compile first, so that no child pays for it in its set-up time
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/occufrac", "perfbench"],
        cwd=ROOT, check=True, capture_output=True, timeout=DEADLINE_S,
    )
    try:
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    problems = consistency_problems(children)
    if args.trace:
        values = per_layer(children, units)
    else:
        values = end_to_end(children, attempted, len(failures))
    missing = set(units) - set(values)
    if missing:
        print(f"benchmark failed: no value for {sorted(missing)}", file=sys.stderr)
        return 1

    plain_runs = [c["run_s"] for c in children if not c["traced"]]
    wall_runs = [c["wall_run_s"] for c in children if not c["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "arch": platform.machine(),
        },
        "metrics": values,
        "wall_run_s_median": statistics.median(wall_runs),
        "run_s_tail": tail(plain_runs),
        "children": [
            {k: c[k] for k in ("pid", "traced", "setup_s", "wall_setup_s", "run_s",
                               "wall_run_s", "wall_s", "peak_rss_mb", "attempted")}
            | {"failed": len(c["failures"])}
            for c in children
        ],
        "failures": failures,
        "problems": problems,
    }
    os.makedirs(os.path.dirname(SAMPLES), exist_ok=True)
    with open(SAMPLES, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(plain_runs)} untraced"
        f" runs, run_s median {statistics.median(plain_runs):.3f} reference s"
        f" ({statistics.median(wall_runs):.3f} wall s),"
        f" tail {record['run_s_tail'] if record['run_s_tail'] is not None else 'n/a (<11 runs)'},"
        f" failed_frac {len(failures)}/{attempted}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
