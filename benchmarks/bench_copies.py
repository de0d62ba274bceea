#!/usr/bin/env python3
"""Benchmark the searches that ask about copies of a witness.

Times, per call, three groups:

* ``witness.has_gamma_r_property`` on the six criterion-8 hosts of the
  perfbench grow-certify workload: W*(2), W*(1) and the process stage one
  step past W*(2), for gamma in {1, 2} and r = 2;
* ``logic.evaluate`` of ``EXSET X (@isoW(X) & @max(X))`` (gamma = 0,
  r = 4) on that workload's 28 logic graphs at its seed 5;
* ``detect.find_induced_W`` for W(3, 0, 4) on two hosts with no copy,
  ``sample_gnp(SamplerConfig(n=40, p=0.3, seed=5))`` and G(60, 0.2) at
  seed 5, where a find search walks its whole tree.

A round is one fresh interpreter that runs every group once to warm up,
then five passes, and reports each group's median pass as microseconds
per call, with a sha256 over the verdicts of the group.  Only verdicts
are hashed: which embedding a find search returns may change with the
search.

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees return different verdicts.

--json PATH also writes every round, the medians, the kernel backend and
os.cpu_count() as one JSON record.

Usage: python benchmarks/bench_copies.py [--rounds N] [--before SRC] [--json PATH]
"""

import alternate

PHI = "EXSET X (@isoW(X) & @max(X))"
SEED = 5
LOGIC_GRAPHS = 28
PASSES = 5


def groups():
    """(label, [(function, args, kwargs), ...], summary) for every timed
    group."""
    from sparsewitness import detect, gnp, logic, witness

    parity_hosts = []
    for gamma in (1, 2):
        state = witness.process_init(gamma, 2)
        while state.graph.n < witness.w_star_vertex_count(2, gamma, 2):
            state = witness.process_step(state)
        parity_hosts += [(witness.build_W_star(2, gamma, 2).graph, gamma),
                         (witness.build_W_star(1, gamma, 2).graph, gamma),
                         (witness.process_step(state).graph, gamma)]
    parity = [(witness.has_gamma_r_property, (g, gamma, 2), {})
              for g, gamma in parity_hosts]

    phi = logic.parse_formula(PHI)
    logic_graphs = [
        gnp.sample_gnp(gnp.SamplerConfig(
            n=4 + t % 7, p=0.2 if t % 2 == 0 else 0.5, seed=SEED,
            stream=gnp.derive_stream(SEED, t)))
        for t in range(LOGIC_GRAPHS)
    ]
    evaluate = [(logic.evaluate, (g, phi), {"gamma": 0, "r": 4}) for g in logic_graphs]

    no_copy = [gnp.sample_gnp(gnp.SamplerConfig(n=40, p=0.3, seed=SEED)),
               gnp.sample_gnp(gnp.SamplerConfig(n=60, p=0.2, seed=SEED))]
    find = [(detect.find_induced_W, (g, 3, 0, 4), {}) for g in no_copy]

    return [
        ("has_gamma_r_property", parity, bool),
        ("logic.evaluate", evaluate, bool),
        ("find_induced_W W(3,0,4)", find, lambda res: res.outcome),
    ]


def child():
    """One round: time every group in this interpreter."""
    alternate.time_groups(groups(), PASSES)


if __name__ == "__main__":
    raise SystemExit(alternate.group_main(__file__, child, PASSES))
