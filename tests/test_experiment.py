"""Monte Carlo harness: config handling, CSV shape, and determinism."""

import dataclasses
import json

import pytest

from sparsewitness import analytics, detect, experiment
from sparsewitness.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    run_experiment,
)

SMALL = ExperimentConfig(
    n_values=(15, 20), alpha=0.3, gamma=0, r=4, a_min=1, a_max=2,
    trials=25, seed=3, budget=10**6,
)


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n_values": [10], "bogus": 1})


@pytest.mark.parametrize("bad, match", [
    ({"workers": 0}, "workers"),
    ({"workers": -3}, "workers"),
    ({"budget": -5}, "budget"),
    ({"trials": 0}, "trials"),
    ({"a_min": 0}, "a range"),
    ({"a_min": 3, "a_max": 2}, "a range"),
    ({"trials": "5"}, "trials must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"n_values": ("12",)}, "n_values must be a tuple of integers"),
    ({"alpha": "0.3"}, "alpha must be a number"),
    ({"p_override": "0.5"}, "p_override must be a number"),
    ({"record_runtime": 1}, "record_runtime must be a bool"),
    ({"n_values": (0,)}, "every n must be at least 1"),
    ({"n_values": (-3,)}, "every n must be at least 1"),
    ({"n_values": (40, 1)}, "every n must hold W"),
    ({"p_override": 1.5}, r"p_override must lie in \[0, 1\], got 1.5"),
    ({"p_override": float("nan")}, r"p_override must lie in \[0, 1\], got nan"),
])
def test_config_rejects_bad_values(bad, match):
    # Without the check workers=0 runs serially and budget=-5 writes a CSV
    # in which every trial reads as over budget.
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict({"n_values": [10], **bad})
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(SMALL, **bad)


@pytest.mark.parametrize("bad, match", [
    ({"n_values": (10,), "gamma": -1}, "gamma must be nonnegative"),
    ({"n_values": (5,), "r": 2, "a_min": 2}, "pattern size s=7 exceeds n=5"),
    ({"n_values": (20,), "alpha": 0.6}, "k_gamma must be positive"),
    ({"n_values": (20,), "alpha": 1.5}, "alpha must lie in"),
])
def test_config_the_analytics_reject_fails_before_any_trial(monkeypatch, bad, match):
    # ExperimentConfig accepts these; the analytics of some n raise.
    calls = []
    monkeypatch.setattr(experiment, "run_trial",
                        lambda args: calls.append(args) or (False, 0, False))
    with pytest.raises(ValueError, match=match):
        run_experiment(dataclasses.replace(SMALL, trials=3, **bad))
    assert calls == []


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_values": [10], "trials": 5, "seed": 1}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.n_values == (10,) and cfg.trials == 5


def test_csv_shape_and_columns():
    header, rows = rows_of(run_experiment(SMALL))
    assert header == CSV_COLUMNS
    assert [r["n"] for r in rows] == ["15", "20"]
    for r in rows:
        assert 0 <= int(r["successes"]) <= 25
        assert float(r["ci_low"]) <= float(r["p_hat"]) <= float(r["ci_high"])
        assert r["runtime_ms"] == "0"  # byte-stable default


def test_determinism_across_worker_counts():
    csv1 = run_experiment(SMALL)
    csv2 = run_experiment(dataclasses.replace(SMALL, workers=2))
    csv3 = run_experiment(SMALL)
    assert csv1 == csv2 == csv3


def test_context_columns_match_analytics():
    header, rows = rows_of(run_experiment(SMALL))
    for r in rows:
        n = int(r["n"])
        p = n ** (-SMALL.alpha)
        expect = analytics.expected_W_dominating(n, p, SMALL.a_min, SMALL.gamma)
        assert float(r["log_expected_W_dom"]) == pytest.approx(
            expect.log, rel=1e-9
        )
        report = analytics.window_report(
            n, SMALL.alpha, SMALL.gamma, r=SMALL.r, mode="part1",
            window="existence",
        )
        assert int(r["admissible_a_count"]) == len(report.admissible_a)


def test_p_override():
    cfg = dataclasses.replace(SMALL, n_values=(12,), p_override=0.5)
    _, rows = rows_of(run_experiment(cfg))
    assert float(rows[0]["p"]) == 0.5


def test_estimate_moments():
    # p_hat is the success fraction and ci_low/ci_high its Wilson interval.
    _, rows = rows_of(run_experiment(SMALL))
    for r in rows:
        successes, trials = int(r["successes"]), int(r["trials"])
        assert float(r["p_hat"]) == successes / trials
        lo, hi = detect.wilson_interval(successes, trials)
        assert float(r["ci_low"]) == pytest.approx(lo, rel=1e-9)
        assert float(r["ci_high"]) == pytest.approx(hi, rel=1e-9)


def test_record_runtime_changes_only_runtime_column():
    # runtime_ms is the last column; every byte before it stays the same.
    plain = run_experiment(SMALL).splitlines()
    timed = run_experiment(dataclasses.replace(SMALL, record_runtime=True)).splitlines()
    assert CSV_COLUMNS[-1] == "runtime_ms" and plain[0] == timed[0]
    for a, b in zip(plain[1:], timed[1:], strict=True):
        head_a, _, ms_a = a.rpartition(",")
        head_b, _, ms_b = b.rpartition(",")
        assert head_a == head_b and ms_a == "0"
        assert ms_b.isdigit()  # a non-negative int
