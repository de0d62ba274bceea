"""Monte Carlo experiment harness: dominating induced witness copies in
G(n, p) across a grid of sizes, with deterministic CSV output.

Each trial gets its own derived random stream, so results are identical
for any worker count.  runtime_ms is 0 by default to keep the CSV
byte-stable; pass record_runtime=True to measure the wall time of each
n's trials instead (at the cost of reproducible bytes).  ExperimentConfig
checks types and ranges; run_experiment then computes every n's
analytics before the first trial, so a config they reject (say alpha
outside (0, 1), or gamma < 0) fails before any trial runs.  The process
pool, and with it concurrent.futures, is imported only for workers > 1.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import analytics, detect, gnp
from .graphs import check_budget
from .witness import w_vertex_count

CSV_COLUMNS = [
    "n", "alpha", "p", "gamma", "r", "a_min", "a_max", "trials",
    "successes", "p_hat", "ci_low", "ci_high", "budget_exceeded",
    "log_expected_W_dom", "window_low", "window_high",
    "admissible_a_count", "seed", "runtime_ms",
]

_INT_FIELDS = ("gamma", "r", "a_min", "a_max", "trials", "seed", "budget", "workers")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, float)


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    alpha: float = 0.3
    gamma: int = 0
    r: int = 4
    a_min: int = 1
    a_max: int = 2
    trials: int = 100
    seed: int = 0
    budget: int = 10**7
    p_override: float | None = None
    workers: int = 1
    record_runtime: bool = False

    def __post_init__(self):
        # Checked here, so that a bad value fails before any trial runs;
        # run_experiment's analytics reject the rest, also before any trial.
        # Values from a JSON config arrive untyped, so types are checked too.
        if not (isinstance(self.n_values, tuple) and all(map(_is_int, self.n_values))):
            raise ValueError(f"n_values must be a tuple of integers, got {self.n_values!r}")
        if any(n < 1 for n in self.n_values):
            raise ValueError(f"every n must be at least 1, got {self.n_values!r}")
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _is_real(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if self.p_override is not None:
            if not _is_real(self.p_override):
                raise ValueError(f"p_override must be a number or None, got {self.p_override!r}")
            if not 0 <= self.p_override <= 1:  # false for nan too
                raise ValueError(f"p_override must lie in [0, 1], got {self.p_override!r}")
        if not isinstance(self.record_runtime, bool):
            raise ValueError(f"record_runtime must be a bool, got {self.record_runtime!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        check_budget(self.budget)
        if self.a_min < 1 or self.a_max < self.a_min:
            raise ValueError(f"bad a range: a_min={self.a_min}, a_max={self.a_max}")
        smallest = w_vertex_count(self.a_min, self.gamma, self.r)
        if any(n < smallest for n in self.n_values):
            raise ValueError(
                f"every n must hold W(a_min) = W({self.a_min}, {self.gamma}, {self.r}), "
                f"which has {smallest} vertices, got {self.n_values!r}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "n_values" not in raw:
            raise ValueError("missing config key: n_values")
        n_values = raw["n_values"]
        if isinstance(n_values, list):
            n_values = tuple(n_values)
        return cls(**{**raw, "n_values": n_values})

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def run_trial(args) -> tuple[bool, int, bool]:
    """One sample: (dominating copy found, copy count, budget exceeded)."""
    n, p, gamma, r, a_min, a_max, seed, trial, budget = args
    cfg = gnp.SamplerConfig(n=n, p=p, seed=seed, stream=gnp.derive_stream(seed, trial))
    g = gnp.sample_gnp(cfg)
    res = detect.find_dominating_induced_W(
        g, gamma, r, (a_min, a_max), mode="count", budget=budget
    )
    return bool(res), res.count, res.outcome == "budget_exceeded"


def _fmt(x: float) -> str:
    return format(x, ".10g")


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run the grid and return the CSV text (header + one row per n).
    Every n's analytics are computed first, so a config they reject fails
    before any trial runs.  With workers > 1 one process pool serves every
    n."""
    context = []
    for n in cfg.n_values:
        p = cfg.p_override if cfg.p_override is not None else n ** (-cfg.alpha)
        log_exp = analytics.expected_W_dominating(n, p, cfg.a_min, cfg.gamma).log
        report = analytics.window_report(
            n, cfg.alpha, cfg.gamma, r=cfg.r, mode="part1", window="existence"
        )
        context.append((n, p, log_exp, report))
    if cfg.workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
            return _run_grid(cfg, context, pool)
    return _run_grid(cfg, context, None)


def _run_grid(cfg: ExperimentConfig, context: list, pool) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for n, p, log_exp, report in context:
        start = time.monotonic()
        args = [
            (n, p, cfg.gamma, cfg.r, cfg.a_min, cfg.a_max, cfg.seed, t, cfg.budget)
            for t in range(cfg.trials)
        ]
        if pool is not None:
            outcomes = list(pool.map(run_trial, args, chunksize=64))
        else:
            outcomes = [run_trial(a) for a in args]
        runtime_ms = (
            int((time.monotonic() - start) * 1000) if cfg.record_runtime else 0
        )
        successes = sum(1 for ok, _, _ in outcomes if ok)
        exceeded = sum(1 for _, _, ex in outcomes if ex)
        ci_low, ci_high = detect.wilson_interval(successes, cfg.trials)
        row = [
            str(n), _fmt(cfg.alpha), _fmt(p), str(cfg.gamma), str(cfg.r),
            str(cfg.a_min), str(cfg.a_max), str(cfg.trials),
            str(successes), _fmt(successes / cfg.trials), _fmt(ci_low), _fmt(ci_high),
            str(exceeded), _fmt(log_exp),
            _fmt(report.window_low), _fmt(report.window_high),
            str(len(report.admissible_a)), str(cfg.seed), str(runtime_ms),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
