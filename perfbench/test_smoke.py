"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(SEED),
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}


def test_per_layer_list_matches_tracing():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = bench("--workload", "sample-cover", "--trace", "0", "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def two_passes(name):
    w = workloads.WORKLOADS[name](SEED, smoke=True)
    w.warm_up()
    outputs = [w.run_pass(workloads.Recorder()) for _ in range(2)]
    assert w.check(outputs) == []
    return w, outputs


def flip_byte(text, at):
    return text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]


def test_flipped_csv_byte_fails_mc_grid():
    w, outputs = two_passes("mc-grid")
    csv = outputs[1].csv
    outputs[1].csv = flip_byte(csv, csv.index("\n") + 1)
    assert any("CSV of pass 1" in d for d, _ in w.check(outputs))


def test_flipped_cover_fails_sample_cover():
    w, outputs = two_passes("sample-cover")
    key = ("dense", 0)
    m, hit = outputs[0].items[key]
    outputs[0].items[key] = (m, not hit)
    assert w.check(outputs)


def test_flipped_parity_verdict_fails_grow_certify():
    w, outputs = two_passes("grow-certify")
    for out in outputs:
        out.items[("parity", 2, "W*(2)")] = False
    assert any("parity" in d for d, _ in w.check(outputs))


def test_corrupted_run_exits_nonzero(monkeypatch, capsys):
    original = workloads.McGrid.run_pass

    def corrupt_first(self, rec):
        out = original(self, rec)
        if not getattr(self, "corrupted", False):
            self.corrupted = True
            out.csv = flip_byte(out.csv, len(out.csv) - 2)
        return out

    monkeypatch.setattr(workloads.McGrid, "run_pass", corrupt_first)
    code = run.main(["--workload", "mc-grid", "--seed", str(SEED), "--seconds", "1",
                     "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_kernel_replay_flags_backend_disagreement(monkeypatch):
    w = workloads.McGrid(SEED, smoke=True)
    tracer = tracing.Tracer(keep_kernel_calls=True)
    with tracer.scope():
        w.run_pass(tracer)
    calls = tracer.kernel_calls
    assert calls
    totals, mismatches = tracing.replay_kernel_calls(calls, ["pure", "pure"])
    assert mismatches == 0 and totals["pure"][1] > 0

    search = tracing.hotpath.embed_search

    def skewed(*args, backend=None, **kwargs):
        res = search(*args, backend="pure", **kwargs)
        if backend == "other":
            res.expansions += 1
        return res

    monkeypatch.setattr(tracing.hotpath, "embed_search", skewed)
    _, mismatches = tracing.replay_kernel_calls(calls, ["pure", "other"])
    assert mismatches == len(calls)
