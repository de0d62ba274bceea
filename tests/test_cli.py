"""CLI smoke tests: every subcommand end to end through main()."""

import json

import pytest

from sparsewitness import cli, hotpath
from sparsewitness.analytics import UndecidableComparisonError
from sparsewitness.cli import main
from sparsewitness.graphs import read_edge_list
from sparsewitness.witness import build_W, w_star_vertex_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_w(tmp_path, capsys):
    out = tmp_path / "w.edges"
    code, _, _ = run(capsys, "build", "--family", "w", "--a", "2",
                     "--gamma", "1", "--r", "4", "--out", str(out))
    assert code == 0
    g = read_edge_list(out.read_text())
    ref = build_W(2, 1, 4).graph
    assert (g.n, g.m) == (ref.n, ref.m)
    roles = (tmp_path / "w.edges.roles").read_text()
    assert roles.strip()


def test_build_wstar_stdout(capsys):
    code, out, _ = run(capsys, "build", "--family", "wstar", "--a", "1",
                       "--gamma", "2", "--r", "2")
    assert code == 0
    body, _, roles = out.partition("# roles\n")
    g = read_edge_list(body)
    assert g.n == 10  # path on 3*gamma + 4 vertices
    assert roles.strip()


def test_process(tmp_path, capsys):
    out = tmp_path / "proc.edges"
    code, _, err = run(capsys, "process", "--gamma", "2", "--r", "2",
                       "--steps", "11", "--out", str(out))
    assert code == 0
    assert "floor 2" in err
    g = read_edge_list(out.read_text())
    assert g.n == w_star_vertex_count(2, 2, 2)


def assert_elapsed_ms(record):
    # Wall time of the search alone, in milliseconds.
    elapsed = record["elapsed_ms"]
    assert isinstance(elapsed, float) and 0 <= elapsed < 60_000


def test_sample_and_detect_roundtrip(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    code, out, _ = run(capsys, "sample", "--n", "25", "--p", "0.4",
                       "--seed", "11")
    assert code == 0
    graph_file.write_text(out)
    code, out, _ = run(capsys, "detect", "--graph", str(graph_file),
                       "--gamma", "0", "--r", "4", "--a", "1", "--count")
    record = json.loads(out)
    assert record["outcome"] in ("found", "none", "budget_exceeded")
    assert code == {"found": 0, "none": 1, "budget_exceeded": 3}[record["outcome"]]
    assert_elapsed_ms(record)


def test_sample_requires_p_or_alpha(capsys):
    with pytest.raises(SystemExit):
        main(["sample", "--n", "10"])


def test_detect_dominating(tmp_path, capsys):
    graph_file = tmp_path / "w.edges"
    run(capsys, "build", "--family", "w", "--a", "2", "--gamma", "0",
        "--r", "4", "--out", str(graph_file))
    code, out, _ = run(capsys, "detect", "--graph", str(graph_file),
                       "--gamma", "0", "--r", "4", "--a-min", "1",
                       "--a-max", "2", "--dominating")
    record = json.loads(out)
    assert code == 0 and record["outcome"] == "found" and record["a"] == 2
    assert record["backend"] == hotpath.BACKEND
    assert_elapsed_ms(record)


def test_evaluate(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    formula_file = tmp_path / "phi.txt"
    run(capsys, "build", "--family", "w", "--a", "1", "--gamma", "1",
        "--r", "4", "--out", str(graph_file))
    formula_file.write_text("EXSET X (@isoW(X) & @max(X))\n")
    code, out, _ = run(capsys, "evaluate", "--graph", str(graph_file),
                       "--formula", str(formula_file), "--gamma", "1")
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("text, message", [
    ("EX x (x ~", "expected a name"),
    ("EX x x ~ y", "unbound vertex variable 'y'"),
], ids=["syntax-error", "unbound-variable"])
def test_evaluate_bad_formula_is_an_error_line(tmp_path, capsys, text, message):
    # Status 2, apart from a false verdict's 1.
    graph_file = tmp_path / "g.edges"
    formula_file = tmp_path / "phi.txt"
    run(capsys, "build", "--family", "w", "--a", "1", "--gamma", "0",
        "--r", "2", "--out", str(graph_file))
    formula_file.write_text(text + "\n")
    code, out, err = run(capsys, "evaluate", "--graph", str(graph_file),
                         "--formula", str(formula_file))
    assert code == 2 and out == ""
    assert err.startswith("sparsewitness evaluate: error: ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command, graph_text, formula_text, message", [
    ("detect", None, None, "No such file or directory"),
    ("detect", "3\n", None, "bad header line: '3'"),
    ("detect", "2 1\n0 x\n", None, "bad edge line: '0 x'"),
    ("evaluate", None, "EX x x = x", "No such file or directory"),
    ("evaluate", "2 2\n0 1\n1 0\n", "EX x x = x", "duplicate edge: '1 0' repeats '0 1'"),
    ("evaluate", "2 1\n0 1\n", None, "No such file or directory"),
], ids=["detect-missing-graph", "detect-bad-header", "detect-bad-edge",
        "evaluate-missing-graph", "evaluate-duplicate-edge", "evaluate-missing-formula"])
def test_bad_input_file_is_an_error_line(tmp_path, capsys, command, graph_text,
                                         formula_text, message):
    # Status 2, apart from a false verdict's 1.
    graph_file = tmp_path / "g.edges"
    formula_file = tmp_path / "phi.txt"
    if graph_text is not None:
        graph_file.write_text(graph_text)
    if formula_text is not None:
        formula_file.write_text(formula_text)
    if command == "detect":
        flags = ("--gamma", "0", "--r", "4")
    else:
        flags = ("--formula", str(formula_file))
    code, out, err = run(capsys, command, "--graph", str(graph_file), *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"sparsewitness {command}: error: ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("build", "--family", "w", "--a", "0", "--gamma", "0", "--r", "4"),
     "a must be at least 1"),
    (("process", "--gamma", "0", "--r", "1", "--steps", "3"), "r must be at least 2"),
    (("process", "--gamma", "0", "--r", "2", "--steps", "-1"),
     "steps must be nonnegative, got -1"),
    (("sample", "--n", "-3", "--p", "0.5"), "n must be nonnegative"),
    (("sample", "--n", "0", "--alpha", "0.3"), "--alpha needs n >= 1, got n=0"),
    (("thresholds", "--n", "0", "--alpha", "0.3", "--gamma", "10"),
     "f is defined on [1, inf)"),
    (("thresholds", "--n", "1000", "--alpha", "1.5", "--gamma", "10"),
     "alpha must lie in (0, 1)"),
    (("thresholds", "--n", "1000", "--alpha", "0.3", "--gamma", "-1"),
     "gamma must be nonnegative"),
    (("sequences", "--mode", "part1", "--i-max", "4", "--gamma", "5"),
     "part 1 requires gamma > 9"),
    (("detect", "--graph", "{graph}", "--gamma", "0", "--r", "2"),
     "a plain search needs --a"),
    (("detect", "--graph", "{graph}", "--gamma", "0", "--r", "2", "--a", "1",
      "--budget", "-1"), "budget must be nonnegative, got -1"),
    (("evaluate", "--graph", "{graph}", "--formula", "{formula}", "--gamma", "0",
      "--r", "2", "--budget", "-1"), "budget must be nonnegative, got -1"),
], ids=["build-a-zero", "process-r-one", "process-negative-steps", "sample-negative-n",
        "sample-alpha-at-n-zero", "thresholds-n-zero", "thresholds-alpha-past-one",
        "thresholds-negative-gamma", "sequences-small-gamma", "detect-without-a",
        "detect-negative-budget", "evaluate-negative-budget"])
def test_bad_value_is_an_error_line(tmp_path, capsys, argv, message):
    # Every subcommand: status 2, apart from a false verdict's 1.
    graph_file = tmp_path / "k23.edges"
    formula_file = tmp_path / "phi.txt"
    run(capsys, "build", "--family", "w", "--a", "2", "--gamma", "0",
        "--r", "2", "--out", str(graph_file))
    formula_file.write_text("EXSET X (@isoW(X) & @max(X))\n")
    argv = [arg.format(graph=graph_file, formula=formula_file) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"sparsewitness {argv[0]}: error: ")
    assert message in err and "Traceback" not in err


def test_search_out_of_budget_exits_3(tmp_path, capsys):
    # No verdict is neither a true (0) nor a false (1) one, nor bad input
    # (2).  detect still prints its record; evaluate prints an error line
    # that names the budget it was given.
    graph_file = tmp_path / "k23.edges"
    formula_file = tmp_path / "phi.txt"
    run(capsys, "build", "--family", "w", "--a", "2", "--gamma", "0",
        "--r", "2", "--out", str(graph_file))
    formula_file.write_text("EXSET X (@isoW(X) & @max(X))\n")
    code, out, _ = run(capsys, "detect", "--graph", str(graph_file), "--gamma", "0",
                       "--r", "2", "--a", "2", "--budget", "1")
    assert code == 3 and json.loads(out)["outcome"] == "budget_exceeded"
    code, out, err = run(capsys, "evaluate", "--graph", str(graph_file), "--formula",
                         str(formula_file), "--gamma", "0", "--r", "2", "--budget", "1")
    assert code == 3 and out == ""
    assert err == "sparsewitness evaluate: error: evaluation exceeded budget of 1\n"


@pytest.mark.parametrize("argv, fault", [
    (["evaluate", "--graph", "g.edges", "--formula", "phi.txt"],
     TypeError("unknown node type")),
    (["sequences", "--mode", "part1", "--i-max", "3"],
     UndecidableComparisonError("no precision separates them")),
], ids=["type-error", "undecidable-comparison"])
def test_internal_fault_is_not_an_input_error(monkeypatch, argv, fault):
    # Only bad input becomes an error line; a fault keeps its traceback.
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", broken)
    with pytest.raises(type(fault)):
        main(argv)


def test_thresholds(capsys):
    code, out, _ = run(capsys, "thresholds", "--n", "500", "--alpha", "0.3",
                       "--gamma", "13")
    assert code == 0
    assert out == (
        '{"alpha": 0.3, "gamma": 13, "r": 4, "k_gamma": 1.3571428571428572, '
        '"f_n": 40.09634147557907, "window": "existence", '
        '"window_low": 30.788262204462498, "window_high": 51.69564025958587, '
        '"admissible_a": []}\n'
    )


def test_thresholds_part2(capsys):
    code, out, _ = run(capsys, "thresholds", "--n", "1000000", "--alpha", "0.6",
                       "--gamma", "4", "--mode", "part2", "--beta", "0.25")
    assert code == 0
    assert out == (
        '{"alpha": 0.6, "gamma": 4, "r": 4, "k_gamma": 0.56, '
        '"f_n": 55000.538179831216, "window": "part2", '
        '"window_low": 31.62277660168379, "window_high": 30801.301380705485, '
        '"admissible_a": [1]}\n'
    )


def test_sequences_part1(capsys):
    code, out, _ = run(capsys, "sequences", "--mode", "part1", "--i-max", "4",
                       "--gamma", "13")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert [r["i"] for r in rows] == [3, 4]
    assert all(r["gap_certificate"] for r in rows)


def test_sequences_part1_default_gamma_certifies(capsys):
    code, out, _ = run(capsys, "sequences", "--mode", "part1", "--i-max", "4")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert [r["i"] for r in rows] == [3, 4]
    assert all(r["gap_certificate"] for r in rows)


def test_sequences_part1_large_i(capsys):
    code, out, _ = run(capsys, "sequences", "--mode", "part1", "--i-max", "11")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert [r["i"] for r in rows] == list(range(3, 12))
    assert all(r["gap_certificate"] and r["existence_certificate"] for r in rows)
    assert [r["existence_a"] for r in rows] == [[i] for i in range(3, 12)]


def test_sequences_part2(capsys):
    code, out, _ = run(capsys, "sequences", "--mode", "part2", "--i-max", "2",
                       "--alpha", "0.6", "--beta", "0.25", "--gamma", "4",
                       "--r", "4")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(rows) == 2
    assert all(r["n_certificate"]["size_ok"] for r in rows)


def test_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps({
        "n_values": [12], "trials": 10, "seed": 5, "budget": 100000,
    }))
    code, _, _ = run(capsys, "experiment", "--config", str(cfg),
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("n,alpha,p,")


@pytest.mark.parametrize("text, flags, message", [
    ('{"n_values": [12], "workers": 0}', (), "workers must be at least 1"),
    ('{"n_values": [12]}', ("--workers", "0"), "workers must be at least 1"),
    ('{"n_values": [12], "trails": 10}', (), "unknown config keys: ['trails']"),
    ('{"n_values": [12],', (), "Expecting"),
    ('{"trials": 10}', (), "missing config key: n_values"),
    ('{"n_values": [12], "trials": "5"}', (), "trials must be an integer, got '5'"),
    ('{"n_values": 12}', (), "n_values must be a tuple of integers, got 12"),
    ('[1, 2]', (), "config must be a JSON object, got [1, 2]"),
    (None, (), "No such file or directory"),
], ids=["workers-key", "workers-flag", "unknown-key", "invalid-json", "no-n-values",
        "string-trials", "scalar-n-values", "json-list", "missing-file"])
def test_experiment_bad_config_is_an_error_line(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run(capsys, "experiment", "--config", str(cfg), *flags)
    assert code == 2 and out == ""
    assert err.startswith("sparsewitness experiment: error: ")
    assert message in err and "Traceback" not in err
