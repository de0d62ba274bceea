"""The three benchmark workloads: inputs from a seed, one timed pass, and
the output checks.

Each workload object is built from ``(seed, smoke)``.  Building it makes
the inputs and the patterns; ``warm_up`` makes the first call.  Both count
as set-up.  ``run_pass(rec)`` runs every item once and returns the pass
output; ``rec`` times each item.  ``check(outputs)`` runs outside the timed
region and returns the failed checks as ``(description, items)`` pairs,
where ``items`` is how many item executions the failure covers.

Why each workload exists, and which layer each one stresses, is written
up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random
import time

from sparsewitness import analytics, detect, experiment, gnp, graphs, logic, witness

BUDGET = 10**6


class Recorder:
    """Times items.  Item keys are hashable and identical across passes."""

    def __init__(self):
        self.times: dict = {}
        self.failed: set = set()

    @contextlib.contextmanager
    def item(self, key):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            self.failed.add(key)
            raise
        finally:
            self.times[key] = time.perf_counter() - t0

    def scope(self):
        """Context for one whole pass; tracing overrides it."""
        return contextlib.nullcontext()

    def attempt(self, key, fn, *args, **kwargs):
        """Run one item, recording an exception as a failed item."""
        try:
            with self.item(key):
                return fn(*args, **kwargs)
        except Exception as exc:  # an item that raises is counted, not fatal
            print(f"item {key!r} raised {exc!r}", flush=True)
            return None


@contextlib.contextmanager
def patched(owner, attr, hook):
    """Route ``owner.attr`` through ``hook(original, *args, **kwargs)``."""
    original = getattr(owner, attr)

    def routed(*args, **kwargs):
        return hook(original, *args, **kwargs)

    setattr(owner, attr, routed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _differing_items(outputs, field):
    """Items whose value differs from the first pass, over all passes."""
    first = getattr(outputs[0], field)
    bad = 0
    for out in outputs[1:]:
        other = getattr(out, field)
        bad += sum(1 for k in first if other.get(k) != first[k])
    return bad


# ---------------------------------------------------------------------------
# mc-grid: the paper's Monte Carlo experiment.

class McOutput:
    __slots__ = ("csv", "trials")

    def __init__(self, csv, trials):
        self.csv = csv            # concatenated run_experiment CSV texts
        self.trials = trials      # (n, trial) -> (found, count, exceeded)


class McGrid:
    """``run_experiment`` at alpha=0.3, gamma=0, r=4, a in [1, 2], one
    config per (chunk, n) so that each n gets its own trial count.  An
    item is one ``run_trial``."""

    name = "mc-grid"
    # Per chunk.  Equal counts at n=15 and n=40 put the median item at the
    # n=25 median and the tail item (10 beyond) inside the n=40 block.
    # Chunks (each with its own experiment seed) run one after another, so
    # every n's trials are spread over the whole pass and meet the same mix
    # of host speeds.
    CHUNKS, TRIALS = 4, {15: 4, 25: 12, 40: 4}
    SMOKE_CHUNKS, SMOKE_TRIALS = 1, {15: 2, 25: 2, 40: 1}
    ORACLE = {15: 4, 25: 4, 40: 1}  # leading trials of chunk 0 recounted

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        chunks, trials = ((self.SMOKE_CHUNKS, self.SMOKE_TRIALS) if smoke
                          else (self.CHUNKS, self.TRIALS))
        self.configs = [
            experiment.ExperimentConfig(
                n_values=(n,), alpha=0.3, gamma=0, r=4, a_min=1, a_max=2,
                trials=t, seed=seed * chunks + k, budget=BUDGET,
            )
            for k in range(chunks) for n, t in trials.items()
        ]
        self.patterns = {a: witness.build_W(a, 0, 4).graph for a in (1, 2)}

    def warm_up(self):
        cfg = self.configs[0]
        n = cfg.n_values[0]
        experiment.run_trial((n, n ** -cfg.alpha, cfg.gamma, cfg.r, cfg.a_min,
                              cfg.a_max, cfg.seed, 0, cfg.budget))

    def item_count(self):
        return sum(c.trials for c in self.configs)

    def run_pass(self, rec):
        trials = {}

        def trial(run_trial, args):
            key = (args[0], args[6], args[7])  # (n, seed, trial)
            with rec.item(key):
                out = run_trial(args)
            trials[key] = out
            if out[2]:
                rec.failed.add(key)
            return out

        texts = []
        with patched(experiment, "run_trial", trial):
            for cfg in self.configs:
                try:
                    texts.append(experiment.run_experiment(cfg))
                except Exception as exc:
                    print(f"run_experiment {cfg} raised {exc!r}", flush=True)
                    rec.failed.update((cfg.n_values[0], cfg.seed, t)
                                      for t in range(cfg.trials))
        return McOutput("".join(texts), trials)

    def _parallel_csv(self):
        return "".join(
            experiment.run_experiment(dataclasses.replace(cfg, workers=2))
            for cfg in self.configs
        )

    def _oracle_count(self, cfg, t):
        n = cfg.n_values[0]
        g = gnp.sample_gnp(gnp.SamplerConfig(
            n=n, p=n ** -cfg.alpha, seed=cfg.seed, stream=gnp.derive_stream(cfg.seed, t)))
        total = 0
        for a in range(cfg.a_min, cfg.a_max + 1):
            pattern = self.patterns[a]
            if pattern.n > g.n:
                continue
            total += sum(
                1 for emb in graphs.induced_embeddings(pattern, g)
                if graphs.is_dominating(g, emb)
            )
        return total

    def check(self, outputs):
        fails = []
        first = outputs[0]
        per_pass = self.item_count()
        for i, out in enumerate(outputs[1:], 1):
            if out.csv != first.csv:
                fails.append((f"CSV of pass {i} differs from pass 0", per_pass))
        if self._parallel_csv() != first.csv:
            fails.append(("CSV with workers=2 differs from workers=1", per_pass))
        bad = _differing_items(outputs, "trials")
        if bad:
            fails.append((f"{bad} trial results differ between passes", bad))

        # Each CSV row must agree with the trials it summarises.
        rows = [ln.split(",") for ln in first.csv.splitlines()
                if ln and not ln.startswith("n,")]
        col = experiment.CSV_COLUMNS.index
        for row in rows:
            try:
                n, seed = int(row[col("n")]), int(row[col("seed")])
                successes = int(row[col("successes")])
                exceeded = int(row[col("budget_exceeded")])
            except (ValueError, IndexError):
                fails.append((f"malformed CSV row {row!r}", 1))
                continue
            mine = [v for (m, s, _), v in first.trials.items() if (m, s) == (n, seed)]
            if successes != sum(1 for ok, _, _ in mine if ok) or exceeded != sum(
                1 for _, _, ex in mine if ex
            ):
                fails.append((f"CSV row n={n} seed={seed} disagrees with its trials",
                              len(mine)))
        if len(rows) != len(self.configs):
            fails.append((f"CSV has {len(rows)} rows, expected {len(self.configs)}",
                          per_pass))

        for cfg in self.configs:
            n = cfg.n_values[0]
            if cfg.seed != self.configs[0].seed:
                continue
            for t in range(min(self.ORACLE[n], cfg.trials)):
                got = first.trials.get((n, cfg.seed, t))
                want = self._oracle_count(cfg, t)
                if got is None or got[2] or got[1] != want:
                    fails.append(
                        (f"trial (n={n}, t={t}) count {got} != oracle {want}", 1))
        return fails

    @staticmethod
    def budget_exceeded(out):
        """The CSV's budget_exceeded total over trials."""
        col = experiment.CSV_COLUMNS.index("budget_exceeded")
        return sum(int(ln.split(",")[col]) for ln in out.csv.splitlines()
                   if ln and not ln.startswith("n,"))


# ---------------------------------------------------------------------------
# sample-cover: the sampler and the bitset rows, no search.

class SampleOutput:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items  # (kind, index) -> (edge count, cover hit)


class SampleCover:
    """Seeded ``sample_gnp``, the first ``.bits`` access, then a
    closed-neighbourhood cover check of the first K vertices.  Dense
    G(50, 0.2) takes the pair-flipping path and sparse G(2000, 0.002) the
    geometric-skip path.  An item is one graph."""

    name = "sample-cover"
    DENSE = (50, 0.2)
    SPARSE = (2000, 0.002)
    K = 17  # domination_probability(50, 0.2, 17) = 0.47
    COUNTS = {"dense": 2000, "sparse": 40}
    SMOKE_COUNTS = {"dense": 40, "sparse": 2}
    RECHECK = {"dense": 5, "sparse": 2}  # leading graphs rebuilt from edges
    # The 3-SE distribution checks run on a fixed batch (the criterion-6
    # seed), so they decide the sampler, not the luck of the run's seed: on
    # the run's own batch two 3-SE tests would fail about one seed in 200.
    REFERENCE_SEED = 66

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        counts = self.SMOKE_COUNTS if smoke else self.COUNTS
        self.inputs = []
        stream = 0
        for kind, (n, p) in (("dense", self.DENSE), ("sparse", self.SPARSE)):
            for i in range(counts[kind]):
                cfg = gnp.SamplerConfig(
                    n=n, p=p, seed=seed, stream=gnp.derive_stream(seed, stream))
                self.inputs.append(((kind, i), cfg))
                stream += 1

    def warm_up(self):
        for kind, (n, p) in (("dense", self.DENSE), ("sparse", self.SPARSE)):
            _ = gnp.sample_gnp(gnp.SamplerConfig(n=n, p=p, seed=self.seed,
                                                 stream=2**63)).bits

    def item_count(self):
        return len(self.inputs)

    def _cover(self, cfg):
        g = gnp.sample_gnp(cfg)
        bits = g.bits
        cover = 0
        for v in range(self.K):
            cover |= bits[v] | (1 << v)
        return g.m, cover == (1 << g.n) - 1

    def run_pass(self, rec):
        items = {}
        for key, cfg in self.inputs:
            items[key] = rec.attempt(key, self._cover, cfg)
        return SampleOutput(items)

    def check(self, outputs):
        fails = []
        first = outputs[0].items
        raised = sum(1 for v in first.values() if v is None)
        if raised:
            fails.append((f"{raised} graphs raised", 0))
        bad = _differing_items(outputs, "items")
        if bad:
            fails.append((f"{bad} graphs differ between passes", bad))

        reference = SampleCover(self.REFERENCE_SEED, self.smoke)
        batch = [(kind, reference._cover(cfg)) for (kind, _), cfg in reference.inputs]
        dense = [v for kind, v in batch if kind == "dense"]
        n, p = self.DENSE
        want = analytics.domination_probability(n, p, self.K)
        freq = sum(hit for _, hit in dense) / len(dense)
        se = math.sqrt(want * (1 - want) / len(dense))
        if abs(freq - want) > 3 * se:
            fails.append((f"dense cover frequency {freq:.4f} vs {want:.4f} "
                          f"is beyond 3 SE ({se:.4f})", len(dense)))

        sparse = [v for kind, v in batch if kind == "sparse"]
        n, p = self.SPARSE
        pairs = n * (n - 1) // 2
        mean = sum(m for m, _ in sparse) / len(sparse)
        se = math.sqrt(pairs * p * (1 - p) / len(sparse))
        if abs(mean - pairs * p) > 3 * se:
            fails.append((f"sparse mean edge count {mean:.1f} vs {pairs * p:.1f} "
                          f"is beyond 3 SE ({se:.2f})", len(sparse)))

        # Rebuild a few graphs' rows from their edge lists.
        seen = dict.fromkeys(self.RECHECK, 0)
        for key, cfg in self.inputs:
            kind = key[0]
            if seen[kind] >= self.RECHECK[kind]:
                continue
            seen[kind] += 1
            g = gnp.sample_gnp(cfg)
            rows = [0] * g.n
            for u, v in g.edges():
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            cover = 0
            for v in range(self.K):
                cover |= rows[v] | (1 << v)
            if rows != g.bits or (g.m, cover == (1 << g.n) - 1) != first[key]:
                fails.append((f"graph {key} does not match its edge list", 1))
        return fails


# ---------------------------------------------------------------------------
# grow-certify: growth process, parity checker, EMSO evaluation, analytics.

def _process_summary(state):
    return state.graph.n, state.graph.m, state.floor, state.step


def _part1_summary(row):
    return row.m_i, row.n_i, row.gap_violators, row.existence_a


def _part2_summary(row):
    return row.n_i, row.m_i, row.n_certificate.holds, row.m_certificate.holds


def _window_summary(report):
    return report.window_low, report.window_high, report.admissible_a


def _log_of(x):
    return x.log


class GrowOutput:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items  # item key -> comparable summary


PHI = "EXSET X (@isoW(X) & @max(X))"


class GrowCertify:
    """Four parts; every call below is one item.

    * ``process_run`` for three (gamma, r) at 250, 500 and 1000 steps;
    * ``has_gamma_r_property`` on W*(1), W*(2) and the process stage one
      step past W*(2), gamma in {1, 2}, r = 2 (criterion 8);
    * ``logic.evaluate`` of PHI on seeded G(n, p), n in 4..10 (criterion 4);
    * ``sequence_part1`` i=3..10, ``sequence_part2`` i=1..8, and
      ``window_report`` (parts 1 and 2) and the first moments over an n
      grid.
    """

    name = "grow-certify"
    PROCESS = [(g, r, s) for g, r in ((0, 2), (1, 2), (1, 3)) for s in (250, 500, 1000)]
    SMOKE_PROCESS = [(0, 2, 60), (1, 3, 60)]
    PARITY_GAMMAS = (1, 2)
    LOGIC_GRAPHS = 28
    SMOKE_LOGIC_GRAPHS = 7
    PART1 = range(3, 11)
    PART2 = range(1, 9)
    # n = 10^2 .. 10^12 in quarter decades.  With four analytics calls per
    # point the first moments sit below the part-2 window reports and the
    # part-1 ones above, so the median item is a part-2 window report
    # whichever way the seeded logic graphs fall.
    GRID = [round(10 ** (k / 4)) for k in range(8, 49)]
    SMOKE_PART1, SMOKE_PART2, SMOKE_GRID = range(3, 6), range(1, 4), [10**2, 10**3]

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.process = self.SMOKE_PROCESS if smoke else self.PROCESS
        self.part1 = self.SMOKE_PART1 if smoke else self.PART1
        self.part2 = self.SMOKE_PART2 if smoke else self.PART2
        self.grid = self.SMOKE_GRID if smoke else self.GRID
        self.phi = logic.parse_formula(PHI)

        self.parity = []   # (key, graph, expected verdict)
        self.stages = {}   # gamma -> (vertices, edges) of the grown W*(2)
        for gamma in self.PARITY_GAMMAS:
            state = witness.process_init(gamma, 2)
            target = witness.w_star_vertex_count(2, gamma, 2)
            while state.graph.n < target:
                state = witness.process_step(state)
            self.stages[gamma] = (state.graph.n, state.graph.m)
            self.parity += [
                (("parity", gamma, "W*(2)"), witness.build_W_star(2, gamma, 2).graph, True),
                (("parity", gamma, "W*(1)"), witness.build_W_star(1, gamma, 2).graph, False),
                (("parity", gamma, "W*(2)+1"), witness.process_step(state).graph, False),
            ]

        self.logic_graphs = []
        for t in range(self.SMOKE_LOGIC_GRAPHS if smoke else self.LOGIC_GRAPHS):
            cfg = gnp.SamplerConfig(n=4 + t % 7, p=0.2 if t % 2 == 0 else 0.5,
                                    seed=seed, stream=gnp.derive_stream(seed, t))
            self.logic_graphs.append((("logic", t), gnp.sample_gnp(cfg)))

        # One entry per item: (key, module, function name, summary, args,
        # kwargs).  The function is looked up when the item runs, so the
        # traced run sees it through its wrapper.
        calls = [(("process", g, r, n), witness, "process_run", _process_summary,
                  (g, r, n), {}) for g, r, n in self.process]
        calls += [(key, witness, "has_gamma_r_property", bool, (g, key[1], 2), {})
                  for key, g, _ in self.parity]
        calls += [(key, logic, "evaluate", bool, (g, self.phi), {"gamma": 0, "r": 4})
                  for key, g in self.logic_graphs]
        calls += [(("part1", i), analytics, "sequence_part1", _part1_summary,
                   (i, 0.3, 10), {}) for i in self.part1]
        calls += [(("part2", i), analytics, "sequence_part2", _part2_summary,
                   (i, 0.6, 0.25, 4, 2), {}) for i in self.part2]
        for n in self.grid:
            calls += [
                (("window1", n), analytics, "window_report", _window_summary,
                 (n, 0.3, 10), {}),
                (("window2", n), analytics, "window_report", _window_summary,
                 (n, 0.6, 4), {"r": 2, "mode": "part2", "beta": 0.25}),
                (("moment", n), analytics, "expected_W_dominating", _log_of,
                 (n, n ** -0.3, 2, 0), {}),
                (("moment*", n), analytics, "expected_W_star", _log_of,
                 (n, n ** -0.6, 2, 2, 2), {}),
            ]
        # One fixed shuffle, the same for every seed, spreads each kind of
        # item over the whole pass, so each kind meets the same mix of host
        # speeds.
        random.Random(0).shuffle(calls)
        self.calls = calls

    def warm_up(self):
        witness.process_run(0, 2, 10)
        analytics.sequence_part1(self.part1[0], 0.3, 10)
        logic.evaluate(self.logic_graphs[0][1], self.phi, gamma=0, r=4)

    def item_count(self):
        return len(self.calls)

    def run_pass(self, rec):
        items = {}
        for key, owner, name, summarize, args, kwargs in self.calls:
            res = rec.attempt(key, getattr(owner, name), *args, **kwargs)
            items[key] = None if res is None else summarize(res)
        return GrowOutput(items)

    def check(self, outputs):
        fails = []
        first = outputs[0].items
        raised = [k for k, v in first.items() if v is None]
        if raised:
            fails.append((f"items raised: {raised}", 0))
        bad = _differing_items(outputs, "items")
        if bad:
            fails.append((f"{bad} items differ between passes", bad))

        for gamma, (n, m) in self.stages.items():
            if (n, m) != (witness.w_star_vertex_count(2, gamma, 2),
                          witness.w_star_edge_count(2, gamma, 2)):
                fails.append((f"grown W*(2) for gamma={gamma} has n={n}, m={m}", 1))
        for gamma, r, steps in self.process:
            got = first[("process", gamma, r, steps)]
            if got is None:
                continue
            n, _, floor, step = got
            lo = witness.w_star_vertex_count(floor, gamma, r)
            hi = witness.w_star_vertex_count(floor + 1, gamma, r)
            if step != steps or not lo <= n < hi:
                fails.append((f"process ({gamma}, {r}) after {steps} steps: "
                              f"n={n} outside stage {floor} [{lo}, {hi})", 1))
        for key, _, want in self.parity:
            if first[key] is not None and first[key] != want:
                fails.append((f"parity {key} is {first[key]}, expected {want}", 1))
        for key, g in self.logic_graphs:
            want = bool(detect.find_dominating_induced_W(g, 0, 4, (1, 2)))
            if first[key] is not None and first[key] != want:
                fails.append((f"logic {key} is {first[key]}, detect says {want}", 1))
        return fails


WORKLOADS = {w.name: w for w in (McGrid, SampleCover, GrowCertify)}
