"""Command-line interface.

Subcommands: build, process, sample, detect, evaluate, thresholds,
sequences, experiment.  Graphs travel as canonical edge lists; witness
constructions also emit a "vertex role" sidecar.

Bad input to any subcommand (a rejected value, an unreadable file) is
one `sparsewitness <command>: error: ...` line on stderr and exit status
2, as argparse reports a bad argument.  `detect` and `evaluate` exit 0
and 1 for their verdicts, and 3 when a search ran out of budget and so
reached none: `detect` still prints its JSON record, and `evaluate` an
error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import analytics, detect, experiment, gnp, hotpath, logic, witness
from .graphs import BudgetExceededError, read_edge_list, write_edge_list


def _emit_graph(graph, role_lines, out, roles_out):
    text = write_edge_list(graph)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if roles_out is None and out:
        roles_out = out + ".roles"
    if roles_out:
        with open(roles_out, "w") as fh:
            fh.write(role_lines)
    elif not out:
        sys.stdout.write("# roles\n" + role_lines)


def _load_graph(path: str):
    with open(path) as fh:
        return read_edge_list(fh.read())


def cmd_build(args) -> int:
    build = witness.build_W_star if args.family == "wstar" else witness.build_W
    ws = build(args.a, args.gamma, args.r)
    _emit_graph(ws.graph, ws.role_lines(), args.out, args.roles_out)
    return 0


def cmd_process(args) -> int:
    state = witness.process_run(args.gamma, args.r, args.steps)
    _emit_graph(state.graph, state.role_lines(), args.out, args.roles_out)
    print(f"# floor {state.floor} step {state.step}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    if args.alpha is not None and args.n < 1:
        raise ValueError(f"--alpha needs n >= 1, got n={args.n}")
    p = args.p if args.p is not None else args.n ** (-args.alpha)
    stream = gnp.derive_stream(args.seed, args.trial)
    g = gnp.sample_gnp(gnp.SamplerConfig(n=args.n, p=p, seed=args.seed, stream=stream))
    sys.stdout.write(write_edge_list(g))
    return 0


def cmd_detect(args) -> int:
    g = _load_graph(args.graph)
    if args.a is None and not args.dominating:
        raise ValueError("a plain search needs --a; --dominating searches "
                         "[--a-min, --a-max]")
    mode = "count" if args.count else "find"
    start = time.perf_counter()
    if args.dominating:
        a_max = args.a if args.a is not None else args.a_max
        res = detect.find_dominating_induced_W(
            g, args.gamma, args.r, (args.a_min, a_max), mode=mode,
            budget=args.budget,
        )
    else:
        res = detect.find_induced_W(g, args.a, args.gamma, args.r,
                                    mode=mode, budget=args.budget)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    record = {
        "outcome": res.outcome,
        "a": res.a,
        "count": res.count,
        "expansions": res.expansions,
        "backend": hotpath.BACKEND,
        "elapsed_ms": round(elapsed_ms, 3),
        "embedding": list(res.embedding) if res.embedding else None,
    }
    print(json.dumps(record))
    if res.outcome == "budget_exceeded":
        return 3
    return 0 if res else 1


def cmd_evaluate(args) -> int:
    g = _load_graph(args.graph)
    with open(args.formula) as fh:
        phi = logic.parse_formula(fh.read())
    verdict = logic.evaluate(g, phi, budget=args.budget,
                             gamma=args.gamma, r=args.r)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_thresholds(args) -> int:
    report = analytics.window_report(
        args.n, args.alpha, args.gamma, r=args.r, mode=args.mode,
        window=args.window, beta=args.beta,
    )
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def cmd_sequences(args) -> int:
    for i in range(1 if args.mode == "part2" else 3, args.i_max + 1):
        if args.mode == "part1":
            row = analytics.sequence_part1(i, args.alpha, args.gamma)
            out = {
                "i": i, "m_i": row.m_i, "n_i": row.n_i,
                "gap_certificate": row.gap_certificate,
                "gap_violators": list(row.gap_violators),
                "existence_certificate": row.existence_certificate,
                "existence_a": list(row.existence_a),
            }
        else:
            row = analytics.sequence_part2(i, args.alpha, args.beta,
                                           args.gamma, args.r)
            out = {
                "i": i, "log_n_i": row.log_n_i, "log_m_i": row.log_m_i,
                "a1": row.a1, "a2": row.a2,
                "n_certificate": dataclasses.asdict(row.n_certificate),
                "m_certificate": dataclasses.asdict(row.m_certificate),
            }
        print(json.dumps(out))
    return 0


def cmd_experiment(args) -> int:
    cfg = experiment.ExperimentConfig.from_file(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    csv_text = experiment.run_experiment(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsewitness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a witness graph")
    p.add_argument("--family", choices=["w", "wstar"], required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--roles-out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("process", help="run the graph process")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--roles-out")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("sample", help="sample G(n, p)")
    p.add_argument("--n", type=int, required=True)
    density = p.add_mutually_exclusive_group(required=True)
    density.add_argument("--p", type=float)
    density.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("detect", help="search for induced witness copies")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--a-min", type=int, default=1)
    p.add_argument("--a-max", type=int, default=2)
    p.add_argument("--dominating", action="store_true")
    p.add_argument("--count", action="store_true")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="evaluate a formula on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--r", type=int, default=4)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("thresholds", help="window report for a size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--mode", choices=["part1", "part2"], default="part1")
    p.add_argument("--window", choices=["existence", "gap"], default="existence")
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sequences", help="non-convergence witness sequences")
    p.add_argument("--mode", choices=["part1", "part2"], required=True)
    p.add_argument("--i-max", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--gamma", type=int, default=13)
    p.add_argument("--r", type=int, default=4)
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Input checks raise ValueError subclasses, and a search with no verdict
    # BudgetExceededError; internal faults keep their tracebacks.
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        error, status = exc, 2
    except BudgetExceededError as exc:
        error, status = exc, 3
    print(f"sparsewitness {args.command}: error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
