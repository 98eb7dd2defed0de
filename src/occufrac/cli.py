"""Command-line front end. Every subcommand returns (inputs, results,
verdict); `main` prints them as a single JSON report to stdout (rationals as
"p/q" strings, insertion-ordered keys) and reserves stderr for diagnostics.

Exit codes: 0 pass / not-applicable, 1 fail, 2 usage error, 3 capability
(size limit) error, a report too long to print included.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import bounds, corpus, hardcore, matching, selftest
from .errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    FormatError,
    StructureError,
)
from .exactmath import ASCII_WHITESPACE, format_rational, fugacity, parse_int, parse_rational
from .graphs import (
    FAMILIES,
    Graph,
    parse_edge_list,
    parse_graph6,
    parse_spec,
    regular_degree,
)
from .lp import solve
from .polynomials import (
    edge_occupancy,
    independence_poly,
    matching_poly,
    occupancy,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

# a fugacity option's numerator and denominator, in lowest terms, must be below
# 10^this, so an accepted fugacity finishes well inside 10 s at every degree
# cap (certify matching at d = 30 is the slowest)
FUGACITY_DIGITS = 50

# a --grid holds at most GRID_ENTRIES fugacities with at most GRID_DIGITS
# digits in all, each fugacity counting the digits of the larger of its
# numerator and denominator in lowest terms. The slowest accepted grid, one
# 50-digit fugacity and four short ones, takes 5.4 to 6.8 s in certify
# matching at d = 30 (two 50-digit fugacities took 8.6 to 10.0 s)
GRID_ENTRIES = 5
GRID_DIGITS = 60


def _encode_rational(value) -> str:
    """json.dump's hook for what JSON cannot hold: a Fraction as "p/q"."""
    if isinstance(value, Fraction):
        return format_rational(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def parse_graph_spec(spec: str, fmt: str = "graph6") -> Graph:
    """A named graph of `graphs.parse_spec` (FAMILY:PARAMS, such as hdn:2:8
    or petersen), or file:PATH (decoded per --format)."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        text = _read_text(rest)
        return _one_graph6(text) if fmt == "graph6" else parse_edge_list(text)
    return parse_spec(spec)[1]


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; bytes that are not UTF-8 are a FormatError
    naming the byte offset where they start."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte offset {exc.start}") from None


def _one_graph6(text: str) -> Graph:
    """The graph of a file holding exactly one graph6 line; blank lines are
    ignored, and only a newline ends a line."""
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln.strip(ASCII_WHITESPACE)]
    if not lines:
        raise FormatError("line 1: expected one graph6 line, the file has none")
    if len(lines) > 1:
        raise FormatError(
            f"line {lines[1][0]}: expected one graph6 line, found a second"
        )
    lineno, line = lines[0]
    try:
        return parse_graph6(line)
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def load_corpus(path: str, fmt: str):
    """A corpus file is one graph per line: graph6 lines, or graph specs
    (whose `file:` entries hold one graph6 line). Errors name the corpus
    line, where only a newline ends a line."""
    named = []
    for idx, line in enumerate(_read_text(path).split("\n"), start=1):
        s = line.strip(ASCII_WHITESPACE)
        if not s or s.startswith("#"):
            continue
        try:
            g = parse_graph6(line) if fmt == "graph6" else parse_graph_spec(s)
        except (DomainError, FormatError, OSError) as exc:
            raise type(exc)(f"line {idx}: {exc}") from None
        named.append((f"line{idx}", g))
    return named


def _corpus(args, builtin):
    """The --corpus file, or the bundled corpus `builtin()` without one."""
    return builtin() if args.corpus is None else load_corpus(args.corpus, args.format)


def _fugacity_arg(text: str) -> Fraction:
    """The fugacity written in a --lambda or --grid option, refused before
    any work when it is longer than FUGACITY_DIGITS allows."""
    lam = fugacity(parse_rational(text))
    if max(lam.numerator, lam.denominator) >= 10**FUGACITY_DIGITS:
        raise CapabilityError(
            f"fugacity supports numerator and denominator < 10^{FUGACITY_DIGITS}"
        )
    return lam


def _grid_arg(text: str | None):
    """The fugacities of a --grid option (the bundled grid without one),
    refused before any work when GRID_ENTRIES or GRID_DIGITS is passed."""
    if not text:
        return corpus.FUGACITY_GRID
    parts = text.split(",")
    if len(parts) > GRID_ENTRIES:
        raise CapabilityError(
            f"--grid supports at most {GRID_ENTRIES} fugacities, got {len(parts)}"
        )
    grid = tuple(_fugacity_arg(part) for part in parts)
    digits = sum(len(str(max(lam.numerator, lam.denominator))) for lam in grid)
    if digits > GRID_DIGITS:
        raise CapabilityError(
            f"--grid supports at most {GRID_DIGITS} fugacity digits in all, got {digits}"
        )
    return grid


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, results, verdict)

def cmd_poly(args):
    g = parse_graph_spec(args.graph, args.format)
    lam = _fugacity_arg(args.lam)
    ip = independence_poly(g)
    mp = matching_poly(g)
    results = {
        "independence": [str(c) for c in ip.coeffs],
        "matching": [str(c) for c in mp.coeffs],
        "occupancy": occupancy(g, lam),
        "edge_occupancy": edge_occupancy(g, lam) if g.edge_count else None,
    }
    return {"graph": args.graph, "lambda": args.lam}, results, "pass"


def cmd_occupancy(args):
    g = parse_graph_spec(args.graph, args.format)
    lam = _fugacity_arg(args.lam)
    return {"graph": args.graph, "lambda": args.lam}, {"occupancy": occupancy(g, lam)}, "pass"


def cmd_counts(args):
    g = parse_graph_spec(args.graph, args.format)
    independent, matchings_by_size = bounds.counts(g)
    results = {
        "independent_sets": [str(c) for c in independent],
        "matchings": [str(c) for c in matchings_by_size],
    }
    return {"graph": args.graph}, results, "pass"


def cmd_certify_hardcore(args):
    lam = _fugacity_arg(args.lam)
    inputs = {"d": args.d, "lambda": args.lam}
    try:
        report = hardcore.dual_certificate(args.d, lam)
    except CertificateError as exc:
        return inputs, {"error": str(exc)}, "fail"
    lp_value = solve(hardcore.build_primal(args.d, lam)).value
    results = {
        "optimum": report.optimum,
        "lp_optimum": lp_value,
        "dual": report.dual_values,
        "tight": report.tight,
        "slacks": report.slacks,
    }
    return inputs, results, "pass" if report.optimum == lp_value else "fail"


def cmd_certify_matching(args):
    if args.grid and args.lam is not None:
        raise DomainError("--grid and --lambda are exclusive")
    lam_text = "1" if args.lam is None else args.lam
    key, value = ("grid", args.grid) if args.grid else ("lambda", lam_text)
    inputs = {"d": args.d, key: value}
    grid = _grid_arg(args.grid) if args.grid else (_fugacity_arg(lam_text),)
    results_by_lam = {}
    verdict = "pass"
    for lam in grid:
        key = format_rational(lam)
        try:
            report = matching.check_dual_constraints(args.d, lam)
            results_by_lam[key] = {
                "optimum": report.optimum,
                "dual": report.dual_values,
                "slacks": report.slacks,
                "slack_profile": report.profile,
                "laguerre": matching.laguerre_identity_holds(args.d),
            }
        except CertificateError as exc:
            results_by_lam[key] = {"error": str(exc)}
            verdict = "fail"
    return inputs, results_by_lam, verdict


def cmd_tree(args):
    lam = _fugacity_arg(args.lam)
    tol = parse_rational(args.tol)
    bracket = bounds.tree_occupancy(args.d, lam, tol)
    results = {
        "alpha_low": bracket.alpha_low,
        "alpha_high": bracket.alpha_high,
        "width": bracket.width,
    }
    if args.d >= 3:
        results["uniqueness_threshold"] = bounds.uniqueness_threshold(args.d)
    return {"d": args.d, "lambda": args.lam, "tol": args.tol}, results, "pass"


def cmd_verify_lower_bound(args):
    named = _corpus(args, corpus.transitive_bipartite_corpus)
    grid = _grid_arg(args.grid)
    rows = []
    verdict = "pass"
    for name, g in named:
        for lam in grid:
            v = bounds.verify_lower_bound(
                g, lam, assume_vertex_transitive=args.assume_vertex_transitive
            )
            rows.append(
                {
                    "graph": name,
                    "lambda": lam,
                    "status": v.status,
                    "occupancy": v.alpha,
                    "tree_gap": v.gap,
                }
            )
            if v.status == "fail":
                verdict = "fail"
    inputs = {"corpus": args.corpus or "builtin", "grid": grid}
    return inputs, {"checks": rows}, verdict


def cmd_verify_given_size(args):
    named = _corpus(args, corpus.given_size_corpus)
    rows = []
    verdict = "pass"
    any_applicable = False
    for name, g in named:
        v = bounds.given_size_bound(g)
        rows.append(
            {
                "graph": name,
                "applicable": v.applicable,
                "ok": v.ok,
                "failures": [list(f) for f in v.failures],
            }
        )
        any_applicable = any_applicable or v.applicable
        if not v.ok:
            verdict = "fail"
    if verdict == "pass" and not any_applicable:
        verdict = "not-applicable"
    return {"corpus": args.corpus or "builtin"}, {"checks": rows}, verdict


def cmd_conjectures(args):
    def bundled():
        # the bundled corpus mixes degrees and sizes; keep the matching slice
        named = [
            (name, g)
            for name, g in corpus.regular_corpus(12)
            if regular_degree(g) == args.d and g.n == args.n
        ]
        if not named:
            raise DomainError(f"no bundled {args.d}-regular graphs on {args.n} vertices")
        return named

    report = bounds.ratio_conjecture_report(_corpus(args, bundled), args.d, args.n)
    results = {}
    for which, rows in report.items():
        results[which] = [
            {
                "k": row["k"],
                "max_ratio": row["max"],
                "achievers": row["achievers"],
                "extremal_candidate": row["extremal_candidate"],
                "candidate_attains_max": row["candidate_attains_max"],
            }
            for row in rows
        ]
    # empirical evidence only: the verdict never fails on a counterexample
    return {"corpus": args.corpus or "builtin", "d": args.d, "n": args.n}, results, "pass"


def cmd_selftest(args):
    results = selftest.run_all(quick=args.quick)
    verdict = "pass" if all(r.passed for r in results) else "fail"
    return {"quick": args.quick}, {"criteria": [r.to_json() for r in results]}, verdict


# ---------------------------------------------------------------------------

def _int_option(text: str) -> int:
    """parse_int for argparse, whose usage error names the type as it did
    for type=int."""
    try:
        return parse_int(text)
    except FormatError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occufrac",
        description="Exact occupancy fractions, LP relaxations and dual "
        "certificates for d-regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        specs = [f"{name}:{params}" if params else name for name, (_, params, _) in FAMILIES.items()]
        p.add_argument("--graph", required=True, help=" | ".join(specs + ["file:PATH"]))
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    p = sub.add_parser("poly", help="independence and matching polynomials")
    add_graph_arg(p)
    p.add_argument("--lambda", dest="lam", default="1", help="fugacity p/q")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("occupancy", help="exact occupancy fraction")
    add_graph_arg(p)
    p.add_argument("--lambda", dest="lam", default="1")
    p.set_defaults(fn=cmd_occupancy)

    p = sub.add_parser("counts", help="independent set and matching counts by size")
    add_graph_arg(p)
    p.set_defaults(fn=cmd_counts)

    p = sub.add_parser("certify", help="dual certificates")
    certify_sub = p.add_subparsers(dest="which", required=True)
    ph = certify_sub.add_parser("hardcore")
    ph.add_argument("--d", type=_int_option, required=True)
    ph.add_argument("--lambda", dest="lam", required=True)
    ph.set_defaults(fn=cmd_certify_hardcore)
    pm = certify_sub.add_parser("matching")
    pm.add_argument("--d", type=_int_option, required=True)
    pm.add_argument("--lambda", dest="lam", help="fugacity p/q (default 1)")
    pm.add_argument("--grid", help="comma-separated fugacities, e.g. 1/4,1,4; excludes --lambda")
    pm.set_defaults(fn=cmd_certify_matching)

    p = sub.add_parser("tree", help="bracket the infinite-tree occupancy")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", default=format_rational(bounds.DEFAULT_TOLERANCE))
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("verify", help="corpus verification")
    verify_sub = p.add_subparsers(dest="which", required=True)
    pl = verify_sub.add_parser("lower-bound")
    pl.add_argument("--corpus")
    pl.add_argument("--format", choices=("graph6", "spec"), default="graph6")
    pl.add_argument("--grid")
    pl.add_argument("--assume-vertex-transitive", action="store_true")
    pl.set_defaults(fn=cmd_verify_lower_bound)
    pg = verify_sub.add_parser("given-size")
    pg.add_argument("--corpus")
    pg.add_argument("--format", choices=("graph6", "spec"), default="graph6")
    pg.set_defaults(fn=cmd_verify_given_size)

    p = sub.add_parser("conjectures", help="empirical successive-ratio report")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=("graph6", "spec"), default="graph6")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--n", type=_int_option, required=True)
    p.set_defaults(fn=cmd_conjectures)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        inputs, results, verdict = args.fn(args)
    except (DomainError, FormatError, StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    report = {
        "command": " ".join(filter(None, (args.command, getattr(args, "which", None)))),
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
        "timing_ms": round((time.monotonic() - start) * 1000, 3),
    }
    try:
        text = json.dumps(report, indent=2, default=_encode_rational)
    except ValueError as exc:
        # an integer beyond the interpreter's digit limit for str(); the
        # whole report is encoded first, so nothing partial reaches stdout
        print(f"capability error: report too long to print: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    sys.stdout.write(text + "\n")
    exit_code = {"pass": EXIT_PASS, "not-applicable": EXIT_PASS, "fail": EXIT_FAIL}
    return exit_code[verdict]


if __name__ == "__main__":
    sys.exit(main())
