import json
import re
from fractions import Fraction

import pytest

from occufrac.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_occupancy_known_value(capsys):
    code, report, _ = run_cli(capsys, "occupancy", "--graph", "kdd:3", "--lambda", "1")
    assert code == 0
    assert report["results"]["occupancy"] == "4/15"
    assert report["verdict"] == "pass"


def test_poly_json_shape(capsys):
    code, report, _ = run_cli(capsys, "poly", "--graph", "cycle:6", "--lambda", "1")
    assert code == 0
    assert report["results"]["independence"] == ["1", "6", "9", "2"]
    assert report["results"]["matching"] == ["1", "6", "9", "2"]
    assert report["results"]["occupancy"] == "5/18"
    assert report["results"]["edge_occupancy"] == "5/18"


def test_certify_hardcore(capsys):
    code, report, _ = run_cli(capsys, "certify", "hardcore", "--d", "3", "--lambda", "1")
    assert code == 0
    assert report["results"]["optimum"] == "4/15"
    assert report["results"]["optimum"] == report["results"]["lp_optimum"]
    assert len(report["results"]["slacks"]) == 8


def test_certify_hardcore_degree_outside_domain_or_cap(capsys):
    # d < 2 is outside the paper's domain (usage error, like matching);
    # d > 7 is beyond the class enumeration (capability error)
    for d in ("0", "1"):
        code, report, err = run_cli(capsys, "certify", "hardcore", "--d", d, "--lambda", "1")
        assert (code, report, err) == (2, None, "error: need d >= 2\n")
    code, report, err = run_cli(capsys, "certify", "hardcore", "--d", "8", "--lambda", "1")
    assert code == 3 and report is None
    assert err == "capability error: configuration enumeration supports 2 <= d <= 7\n"
    code, _, err = run_cli(capsys, "certify", "matching", "--d", "1", "--lambda", "1")
    assert (code, err) == (2, "error: need d >= 2\n")


def test_certify_matching(capsys):
    code, report, _ = run_cli(capsys, "certify", "matching", "--d", "3", "--lambda", "1")
    assert code == 0
    block = report["results"]["1"]
    assert block["optimum"] == "7/34"
    assert block["laguerre"] is True
    assert len(block["slacks"]) == 14


def test_certify_matching_echoes_the_fugacity_it_used(capsys):
    _, report, _ = run_cli(capsys, "certify", "matching", "--d", "2", "--lambda", "7/5")
    assert report["inputs"] == {"d": 2, "lambda": "7/5"}
    assert list(report["results"]) == ["7/5"]
    _, report, _ = run_cli(capsys, "certify", "matching", "--d", "2", "--grid", "1/4,4")
    assert report["inputs"] == {"d": 2, "grid": "1/4,4"}
    assert list(report["results"]) == ["1/4", "4"]


def test_certify_matching_grid_excludes_lambda(capsys):
    # the pair is refused even when --lambda repeats its default
    for lam in ("2", "1"):
        code, report, err = run_cli(
            capsys, "certify", "matching", "--d", "3", "--grid", "1", "--lambda", lam
        )
        assert (code, report, err) == (2, None, "error: --grid and --lambda are exclusive\n")
    _, report, _ = run_cli(capsys, "certify", "matching", "--d", "3")
    assert report["inputs"] == {"d": 3, "lambda": "1"}
    assert list(report["results"]) == ["1"]


def test_certify_matching_runs_the_row_prices_once_per_fugacity(monkeypatch, capsys):
    # the profile in the report comes from the pass that certified it
    import occufrac.matching as mod

    calls = []
    original = mod.dual_row_prices

    def count(d, lam):
        calls.append(lam)
        return original(d, lam)

    monkeypatch.setattr(mod, "dual_row_prices", count)
    code, report, _ = run_cli(capsys, "certify", "matching", "--d", "5", "--grid", "1/4,1,4")
    assert (code, list(report["results"])) == (0, ["1/4", "1", "4"])
    assert calls == [Fraction(1, 4), Fraction(1), Fraction(4)]


def test_failed_certificate_reads_as_its_message(monkeypatch, capsys):
    # a wrong balance price leaves the empty class with a negative slack; the
    # report carries the error's message, not the tuple of its args
    import occufrac.hardcore as mod

    original = mod.solver_dual_for_certificate

    def perturbed(d, lam):
        norm, balance = original(d, lam)
        return norm, balance - Fraction(1, 100)

    monkeypatch.setattr(mod, "solver_dual_for_certificate", perturbed)
    code, report, _ = run_cli(capsys, "certify", "hardcore", "--d", "3", "--lambda", "1")
    assert (code, report["verdict"]) == (1, "fail")
    assert report["results"] == {"error": "negative dual slack at configuration 0v0e#0"}


def test_zero_regular_graph_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "empty4.g6"
    corpus.write_text("C?\n")  # 4 vertices, no edges
    code, report, err = run_cli(capsys, "verify", "given-size", "--corpus", str(corpus))
    assert (code, report, err) == (2, None, "error: graph must be d-regular with d >= 1\n")
    code, report, err = run_cli(
        capsys, "conjectures", "--d", "0", "--n", "8", "--corpus", str(corpus)
    )
    assert (code, report, err) == (2, None, "error: need d >= 1\n")


def test_certify_matching_beyond_the_benchmark_degrees(capsys):
    code, report, _ = run_cli(capsys, "certify", "matching", "--d", "20", "--lambda", "7/5")
    assert (code, report["verdict"]) == (0, "pass")
    slacks = report["results"]["7/5"]["slacks"]
    assert len(slacks) == 20 * 21 * 41 // 6
    for label, slack in slacks:
        i, j, k = map(int, label.strip("()").split(","))
        if (i, j, k) != (i, i, 0):
            assert Fraction(slack) > 0, label


def test_zero_fugacity_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "certify", "matching", "--d", "3", "--lambda", "0")
    assert code == 2
    assert report is None
    assert err == "error: fugacity must be positive\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("value", ["\u0663", "+3", "0_3", " 3", "x"])
@pytest.mark.parametrize(
    "argv",
    [("certify", "hardcore", "--lambda", "1", "--d"),
     ("certify", "matching", "--d"),
     ("tree", "--lambda", "1", "--d"),
     ("conjectures", "--d", "2", "--n")],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, value):
    code, report, err = run_cli(capsys, *argv, value)
    assert (code, report) == (2, None)
    assert f"argument {argv[-1]}: invalid int value: {value!r}\n" in err


@pytest.mark.parametrize(
    "lam, part",
    [("1_0", "1_0"), ("+1", "+1"), ("\u0661/\u0662", "\u0661"), ("\xa01/2", "\xa01")],
)
def test_fugacities_take_ascii_integers_only(capsys, lam, part):
    code, report, err = run_cli(capsys, "occupancy", "--graph", "kdd:2", "--lambda", lam)
    assert (code, report) == (2, None)
    message = f"bad rational {lam!r}: invalid literal for int() with base 10: {part!r}"
    assert err == f"error: {message}\n"


def test_capability_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "poly", "--graph", "cycle:40")
    assert code == 3
    assert "budget" in err or "capability" in err


def test_multi_component_graph_within_per_component_budgets(capsys):
    # 36 vertices in six K_{3,3}: each component is within both budgets
    from occufrac.polynomials import kdd_independence_poly, kdd_matching_poly

    code, report, err = run_cli(capsys, "poly", "--graph", "hdn:3:36")
    assert (code, err) == (0, "")
    results = report["results"]
    assert results["independence"] == [str(c) for c in (kdd_independence_poly(3) ** 6).coeffs]
    assert results["matching"] == [str(c) for c in (kdd_matching_poly(3) ** 6).coeffs]
    assert results["occupancy"] == "4/15"


def test_tree_command(capsys):
    code, report, _ = run_cli(
        capsys, "tree", "--d", "3", "--lambda", "1", "--tol", "1/1000000"
    )
    assert code == 0
    assert report["results"]["uniqueness_threshold"] == "4"


def test_tree_default_tolerance(capsys):
    code, report, _ = run_cli(capsys, "tree", "--d", "3", "--lambda", "1")
    assert (code, report["inputs"]["tol"]) == (0, "1/1000000000")
    assert Fraction(report["results"]["width"]) <= Fraction(1, 10**9)


def test_verify_lower_bound_builtin(capsys):
    code, report, _ = run_cli(capsys, "verify", "lower-bound", "--grid", "1")
    assert code == 0
    assert report["verdict"] == "pass"
    assert len(report["results"]["checks"]) == 11


def test_verify_given_size_builtin(capsys):
    code, report, _ = run_cli(capsys, "verify", "given-size")
    assert code == 0
    assert report["verdict"] == "pass"


def test_lower_bound_checks_are_pass_or_fail(capsys):
    # every check over the builtin corpus and grid is decided by the sign of
    # its exact tree gap
    code, report, _ = run_cli(capsys, "verify", "lower-bound")
    assert (code, report["verdict"]) == (0, "pass")
    rows = report["results"]["checks"]
    assert len(rows) == 55
    for row in rows:
        assert list(row) == ["graph", "lambda", "status", "occupancy", "tree_gap"]
        assert row["status"] == ("pass" if Fraction(row["tree_gap"]) > 0 else "fail")


def test_a_report_too_long_to_print_is_a_capability_error(monkeypatch, capsys):
    import sys

    from occufrac import cli

    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    monkeypatch.setattr(
        cli, "cmd_occupancy", lambda args: ({}, {"occupancy": Fraction(10**5000)}, "pass")
    )
    code = main(["occupancy", "--graph", "kdd:3"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("capability error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, work, message",
    [(["tree", "--d", "1001", "--lambda", "1"], ("bounds", "_tree_gap"),
      "tree bisection supports d <= 1000"),
     (["tree", "--d", "3", "--lambda", "1", "--tol", "1/1" + "0" * 100 + "1"],
      ("bounds", "_tree_gap"), "tree bisection supports tolerance >= 1/10^100"),
     (["certify", "matching", "--d", "31"], ("matching", "check_slack_profile"),
      "matching certificate supports d <= 30"),
     (["certify", "matching", "--d", "30", "--grid", "1/4,1/2,1,2,4,8"],
      ("matching", "check_dual_constraints"), "--grid supports at most 5 fugacities, got 6"),
     (["certify", "matching", "--d", "30", "--grid", "9" * 50 + ",1/" + "9" * 10 + "8,3"],
      ("matching", "check_dual_constraints"),
      "--grid supports at most 60 fugacity digits in all, got 62"),
     (["verify", "lower-bound", "--grid", "1,2,3,4,5,6,7"], ("bounds", "verify_lower_bound"),
      "--grid supports at most 5 fugacities, got 7")],
)
def test_numeric_caps_exit_three_before_any_work(monkeypatch, capsys, argv, work, message):
    import importlib

    def fail(*args):
        raise AssertionError("the capped work ran")

    monkeypatch.setattr(importlib.import_module(f"occufrac.{work[0]}"), work[1], fail)
    code, report, err = run_cli(capsys, *argv)
    assert (code, report, err) == (3, None, f"capability error: {message}\n")


_LONG = str(10**50)  # 51 digits, one past the fugacity cap


@pytest.mark.parametrize(
    "argv, work",
    [(["poly", "--graph", "cycle:6", "--lambda", _LONG], ("cli", "independence_poly")),
     (["occupancy", "--graph", "kdd:2", "--lambda", "1/" + _LONG], ("cli", "occupancy")),
     (["certify", "hardcore", "--d", "2", "--lambda", _LONG + "/3"],
      ("hardcore", "dual_certificate")),
     (["certify", "matching", "--d", "30", "--lambda", "1/" + _LONG],
      ("matching", "check_dual_constraints")),
     (["certify", "matching", "--d", "2", "--grid", "1,4/" + _LONG + "1"],
      ("matching", "check_dual_constraints")),
     (["tree", "--d", "1000", "--lambda", "1/" + _LONG, "--tol", "1/1" + "0" * 100],
      ("bounds", "tree_occupancy")),
     (["verify", "lower-bound", "--grid", _LONG], ("bounds", "verify_lower_bound"))],
)
def test_long_fugacities_exit_three_before_any_work(monkeypatch, capsys, argv, work):
    import importlib

    def fail(*args, **kwargs):
        raise AssertionError("the capped work ran")

    monkeypatch.setattr(importlib.import_module(f"occufrac.{work[0]}"), work[1], fail)
    code, report, err = run_cli(capsys, *argv)
    message = "fugacity supports numerator and denominator < 10^50"
    assert (code, report, err) == (3, None, f"capability error: {message}\n")


def test_fugacity_cap_admits_fifty_digits_in_lowest_terms(capsys):
    nines = "9" * 50
    for lam in (nines, f"1/{nines}", f"{nines}/{'9' * 49}8", f"{_LONG}/{_LONG}"):
        code, report, _ = run_cli(capsys, "occupancy", "--graph", "kdd:2", "--lambda", lam)
        assert (code, report["inputs"]["lambda"]) == (0, lam)
    # the tolerance keeps its own, longer cap
    tol = "1/1" + "0" * 100
    code, report, _ = run_cli(capsys, "tree", "--d", "3", "--lambda", "1", "--tol", tol)
    assert code == 0


def test_grid_cap_admits_five_fugacities_of_sixty_digits(capsys):
    # digits are those of the larger of numerator and denominator in lowest
    # terms: 2/4 counts one digit, 10/3 two
    for grid in ("1/4,1/2,1,2,4", "9" * 50 + ",1/" + "9" * 7 + ",2/4,10/3"):
        code, report, _ = run_cli(capsys, "certify", "matching", "--d", "2", "--grid", grid)
        assert (code, report["inputs"]["grid"]) == (0, grid)


def test_given_size_without_an_applicable_graph_exits_zero(tmp_path, capsys):
    # C5 is 2-regular on 5 vertices, and 2d = 4 does not divide 5
    path = tmp_path / "corpus.txt"
    path.write_text("cycle:5\n")
    code, report, _ = run_cli(
        capsys, "verify", "given-size", "--corpus", str(path), "--format", "spec"
    )
    assert (code, report["verdict"]) == (0, "not-applicable")
    assert [row["applicable"] for row in report["results"]["checks"]] == [False]


@pytest.mark.parametrize(
    "argv, command",
    [
        (["poly", "--graph", "cycle:6"], "poly"),
        (["occupancy", "--graph", "kdd:2"], "occupancy"),
        (["counts", "--graph", "kdd:2"], "counts"),
        (["certify", "hardcore", "--d", "2", "--lambda", "1"], "certify hardcore"),
        (["certify", "matching", "--d", "2"], "certify matching"),
        (["tree", "--d", "2", "--lambda", "1"], "tree"),
        (["verify", "lower-bound", "--grid", "1"], "verify lower-bound"),
        (["verify", "given-size"], "verify given-size"),
        (["conjectures", "--d", "2", "--n", "8"], "conjectures"),
        (["selftest", "--quick"], "selftest"),
    ],
)
def test_every_subcommand_names_itself(capsys, argv, command):
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(report) == ["command", "inputs", "results", "verdict", "timing_ms"]
    assert report["command"] == command


def test_verify_given_size_builtin_loads_no_other_corpus(capsys, monkeypatch):
    from occufrac import corpus

    def refuse(*args, **kwargs):
        raise AssertionError("regular_corpus built without --corpus")

    monkeypatch.setattr(corpus, "regular_corpus", refuse)
    code, report, _ = run_cli(capsys, "verify", "given-size")
    assert code == 0
    assert report["verdict"] == "pass"


@pytest.mark.parametrize(
    "spec",
    ["nonsense:3", "complete_bipartite:3", "H:2:8", "petersen:3", "kdd:x", "kdd:",
     "hdn:2", "hdn:2:6", "cycle:2", "kdd:3:4"],
)
def test_bad_graph_specs_are_usage_errors(capsys, spec):
    code, report, err = run_cli(capsys, "counts", "--graph", spec)
    assert code == 2 and report is None
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "spec, independent",
    [("kdd:2", 7), ("hdn:2:8", 49), ("cycle:5", 11), ("complete:4", 5),
     ("prism:3", 13), ("hypercube:2", 7), ("petersen", 76)],
)
def test_graph_specs_name_generate_families(capsys, spec, independent):
    code, report, _ = run_cli(capsys, "counts", "--graph", spec)
    assert code == 0
    assert sum(int(c) for c in report["results"]["independent_sets"]) == independent


@pytest.mark.parametrize(
    "spec, code, err",
    [
        ("petersen:", 0, ""),
        ("cycle:", 2, "error: family 'cycle' takes 1 parameter(s)\n"),
        ("cycle:x", 2,
         "error: bad graph spec 'cycle:x': invalid literal for int() with base 10: 'x'\n"),
        ("hdn:2", 2, "error: family 'hdn' takes 2 parameter(s)\n"),
        ("nonsense:3", 2, "error: unknown family 'nonsense'\n"),
        ("Cycle:5", 2, "error: unknown family 'Cycle'\n"),
        (":5", 2, "error: unknown family ''\n"),
        ("kdd:0", 2, "error: complete_bipartite needs d >= 1\n"),
        ("cycle:3:4", 2, "error: family 'cycle' takes 1 parameter(s)\n"),
        ("cycle:-3", 2, "error: cycle needs n >= 3\n"),
        # parameters are ASCII digits after an optional minus sign
        ("cycle: +5", 2,
         "error: bad graph spec 'cycle: +5': invalid literal for int() with base 10: ' +5'\n"),
        ("cycle:1_0", 2,
         "error: bad graph spec 'cycle:1_0': invalid literal for int() with base 10: '1_0'\n"),
        ("cycle:\u0661\u0660", 2,
         "error: bad graph spec 'cycle:\u0661\u0660': invalid literal for int() with base 10:"
         " '\u0661\u0660'\n"),
    ],
)
def test_graph_spec_errors_are_pinned(capsys, spec, code, err):
    assert run_cli(capsys, "counts", "--graph", spec)[::2] == (code, err)


def test_counts_help_lists_every_family(capsys):
    from occufrac.graphs import FAMILIES

    assert main(["counts", "--help"]) == 0
    words = capsys.readouterr().out.split()
    for family, (_, params, _) in FAMILIES.items():
        assert (f"{family}:{params}" if params else family) in words


def test_readme_graph_specs_parse():
    from pathlib import Path

    from occufrac.graphs import parse_spec

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    specs = re.findall(r"--graph (\S+)", section)
    assert specs
    for spec in specs:
        parse_spec(spec)


def test_counts_and_file_input(tmp_path, capsys):
    path = tmp_path / "graph.el"
    path.write_text("3\n0 1\n1 2\n")
    code, report, _ = run_cli(
        capsys, "counts", "--graph", f"file:{path}", "--format", "edgelist"
    )
    assert code == 0
    assert report["results"]["independent_sets"] == ["1", "3", "1"]

    g6 = tmp_path / "graph.g6"
    g6.write_text("C~\n")
    code, report, _ = run_cli(capsys, "counts", "--graph", f"file:{g6}")
    assert code == 0
    assert report["results"]["matchings"] == ["1", "6", "3"]


def test_conjectures_command(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("cycle:8\nhdn:2:8\n")
    code, report, _ = run_cli(
        capsys, "conjectures", "--corpus", str(corpus), "--format", "spec",
        "--d", "2", "--n", "8",
    )
    assert code == 0
    assert report["verdict"] == "pass"
    rows = report["results"]["independent"]
    assert rows[-1]["candidate_attains_max"] is True


def test_graph6_corpus_errors_name_the_corpus_line(tmp_path, capsys):
    from occufrac.cli import load_corpus
    from occufrac.errors import FormatError

    path = tmp_path / "corpus.g6"
    path.write_text("C~\n\nBAD!\n")
    message = "line 3: graph6 body for n=3 needs 1 bytes, got 3 (byte offset 2)"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_corpus(str(path), "graph6")
    code, report, err = run_cli(capsys, "verify", "given-size", "--corpus", str(path))
    assert (code, report, err) == (2, None, f"error: {message}\n")


def test_graph6_corpus_lines_end_at_newline_only(tmp_path):
    from occufrac.cli import load_corpus
    from occufrac.errors import FormatError

    path = tmp_path / "corpus.g6"
    # chr(133) and chr(12) would end a line for str.splitlines()
    path.write_text("C~\n\x85A_\x0cBAD!\n  A_X\n")
    message = "line 2: bad graph6 header byte 133 at byte offset 0"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_corpus(str(path), "graph6")
    path.write_text("C~\n\n  A_X\n")
    message = "line 3: graph6 body for n=2 needs 1 bytes, got 2 (byte offset 4)"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_corpus(str(path), "graph6")


def test_spec_corpus_errors_name_the_corpus_line(tmp_path, capsys):
    from occufrac.cli import load_corpus
    from occufrac.errors import DomainError

    path = tmp_path / "corpus.txt"
    path.write_text("cycle:8\n# comment\nnonsense:3\n")
    with pytest.raises(DomainError, match="^line 3: unknown family 'nonsense'$"):
        load_corpus(str(path), "spec")
    path.write_text(f"cycle:8\nfile:{tmp_path / 'missing.g6'}\n")
    code, report, err = run_cli(
        capsys, "verify", "given-size", "--corpus", str(path), "--format", "spec"
    )
    assert (code, report) == (2, None)
    assert err.startswith("error: line 2: ")


def test_spec_corpus_file_entries_are_graph6(tmp_path, capsys):
    from occufrac.graphs import cycle, to_graph6

    g6 = tmp_path / "c8.g6"
    g6.write_text(to_graph6(cycle(8)) + "\n")
    path = tmp_path / "corpus.txt"
    path.write_text(f"file:{g6}\nhdn:2:8\n")
    code, report, _ = run_cli(
        capsys, "verify", "given-size", "--corpus", str(path), "--format", "spec"
    )
    assert code == 0 and report["verdict"] == "pass"
    assert [row["graph"] for row in report["results"]["checks"]] == ["line1", "line2"]
    assert all(row["applicable"] for row in report["results"]["checks"])


def test_decimal_fugacity_rejected(capsys):
    code, _, err = run_cli(capsys, "occupancy", "--graph", "kdd:2", "--lambda", "0.5")
    assert code == 2


def test_selftest_quick(capsys):
    code, report, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    assert report["verdict"] == "pass"
    criteria = report["results"]["criteria"]
    assert len(criteria) == 10
    assert all(c["pass"] for c in criteria)


def test_verify_lower_bound_corpus_file(tmp_path, capsys):
    from occufrac.graphs import cycle, to_graph6

    path = tmp_path / "corpus.g6"
    path.write_text(to_graph6(cycle(6)) + "\n" + to_graph6(cycle(8)) + "\n")
    code, report, _ = run_cli(
        capsys, "verify", "lower-bound", "--corpus", str(path), "--grid", "1"
    )
    assert code == 0
    assert report["verdict"] == "pass"
    assert len(report["results"]["checks"]) == 2


def test_files_that_are_not_utf8_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff\xfe")
    code, report, err = run_cli(capsys, "counts", "--graph", f"file:{bad}")
    assert (code, report, err) == (2, None, f"error: {bad}: not UTF-8 at byte offset 0\n")

    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"C~\n# caf\xe9\n")
    code, report, err = run_cli(capsys, "verify", "given-size", "--corpus", str(corpus))
    assert (code, report, err) == (2, None, f"error: {corpus}: not UTF-8 at byte offset 8\n")

    specs = tmp_path / "corpus.txt"
    specs.write_text(f"cycle:8\nfile:{bad}\n")
    code, report, err = run_cli(
        capsys, "verify", "given-size", "--corpus", str(specs), "--format", "spec"
    )
    assert (code, report, err) == (2, None, f"error: line 2: {bad}: not UTF-8 at byte offset 0\n")


def test_missing_file_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "counts", "--graph", "file:/nonexistent/g.g6")
    assert code == 2
    assert report is None


def test_graph6_file_holds_exactly_one_graph(tmp_path, capsys):
    one = tmp_path / "one.g6"
    one.write_text("\nC~\n\n")
    code, report, _ = run_cli(capsys, "counts", "--graph", f"file:{one}")
    assert code == 0
    assert report["results"]["matchings"] == ["1", "6", "3"]

    two = tmp_path / "two.g6"
    two.write_text("C~\nA_\n")
    code, report, err = run_cli(capsys, "counts", "--graph", f"file:{two}")
    assert code == 2 and report is None
    assert "line 2" in err


@pytest.mark.parametrize(
    "text, where",
    [("", "line 1"), ("  \n", "line 1"), ("C~\nA_\n", "line 2"), ("\nA_X\n", "line 2.*offset"),
     # lines end at "\n" only: chr(28) is inside line 1, not a line break
     ("C~\x1cA_\n", r"^line 1: graph6 body for n=4 needs 1 bytes, got 4 \(byte offset 2\)$")],
)
def test_graph6_file_errors_are_format_errors_naming_the_line(tmp_path, text, where):
    from occufrac.cli import parse_graph_spec
    from occufrac.errors import FormatError

    path = tmp_path / "graph.g6"
    path.write_text(text)
    with pytest.raises(FormatError, match=where):
        parse_graph_spec(f"file:{path}")


def test_python_dash_m_entry_point():
    # an uninstalled checkout runs the CLI as `python -m occufrac`
    import os
    import subprocess
    import sys
    from pathlib import Path

    import occufrac

    src = str(Path(occufrac.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "occufrac", "occupancy", "--graph", "kdd:3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["results"]["occupancy"] == "4/15"
