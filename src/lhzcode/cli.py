"""Command line front end: graph inspection, one-shot decoding, sweeps, bounds.

Exit codes: 0 on success, 1 on usage errors (bad flags or values) and when
stdout is closed before all output is written (e.g. piped into head), 2 when
work is refused on capacity grounds (a search or a constraint graph too
large). Output rows have a fixed column order and %.6g float formatting, so
identical invocations give identical bytes and --threads never changes them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from contextlib import nullcontext
from dataclasses import fields

from .channel import NoiseModel, channel_prior
from .codes import as_bits, index_pair, logical_from_consecutive, num_logical, pair_table
from .decoders import SCHEDULES, bp_decode, epsilon_star, majority_vote_decode, mle_decode
from .errors import CapacityError, ConfigError, DimensionError, LhzError
from .sim import DECODER_IDS, GRAPH_KINDS, SimConfig, SimResult, chernoff_bound, graph_for, run_sweep, union_bound

__all__ = ["OUTPUT_COLUMNS", "main", "build_parser"]

OUTPUT_COLUMNS = tuple(f.name for f in fields(SimResult) if f.compare)
_BOUND_COLUMNS = ("n", "epsilon", "eps_star", "chernoff", "union_bound")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _emit(rows, columns, fmt, stream_) -> None:
    """Write row dicts in the given column order, floats at %.6g.

    csv puts a header line first; jsonl writes one object per row.
    """
    if fmt == "csv":
        print(",".join(columns), file=stream_)
        for row in rows:
            cells = (_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns)
            print(",".join(cells), file=stream_)
    else:
        for row in rows:
            obj = {c: float(_fmt(row[c])) if isinstance(row[c], float) else row[c] for c in columns}
            print(json.dumps(obj), file=stream_)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for capacity."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _numbers(parts, kind, text: str) -> tuple:
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot read {text!r} as {kind.__name__} values") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Either "8", "2,6,10", or an inclusive range "2..40"."""
    text = text.strip()
    if ".." in text:
        lo, hi = _numbers(text.split("..", 1), int, text)
        if hi < lo:
            raise ConfigError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return _numbers(text.split(","), int, text)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _numbers(text.split(","), float, text)


def _bits_str(a) -> str:
    return "".join(str(int(b)) for b in a)


def _open_out(path):
    """The --out file opened for writing, or stdout (left open) without one."""
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None


def _check_out(path) -> None:
    """Refuse, before any work is done, an --out path that is neither a writable
    file nor a new name in a writable directory; _open_out reports the rest."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write --out {path}: not a writable file")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lhzcode", description="pairwise-parity code toolkit")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    g = sub.add_parser("graph", help="print a constraint graph")
    g.add_argument("kind", choices=GRAPH_KINDS)
    g.add_argument("--n", type=int, required=True, help="logical size")
    g.add_argument("--format", choices=("text", "json"), default="text")
    g.set_defaults(func=cmd_graph)

    d = sub.add_parser("decode", help="decode one observed word")
    d.add_argument("word", help="observed physical word as a bit string")
    d.add_argument("--decoder", choices=sorted(DECODER_IDS), default="bp")
    d.add_argument("--eps", type=float, default=0.1, help="channel flip probability")
    d.add_argument("--n", type=int, help="logical size, checked against the word length")
    d.add_argument("--graph", choices=GRAPH_KINDS, default="triangle")
    d.add_argument("--iterations", type=int, default=5)
    d.add_argument("--schedule", choices=SCHEDULES, default="belief")
    d.add_argument("--include-direct", action="store_true", help="count the observed bit as a vote")
    d.set_defaults(func=cmd_decode)

    s = sub.add_parser("simulate", help="Monte Carlo failure-rate sweep")
    s.add_argument("--n", required=True, help='logical sizes: "8", "2,6,10", or "2..40"')
    s.add_argument("--eps", required=True, help='flip probabilities, comma separated')
    s.add_argument("--decoder", default="bp", help="comma separated subset of majority,bp,mle")
    s.add_argument("--trials", type=int, default=5000)
    s.add_argument("--seed", type=int, default=None, help="omit for a fresh random seed (echoed on stderr)")
    s.add_argument("--graph", choices=GRAPH_KINDS, default="triangle")
    s.add_argument("--iterations", type=int, default=5)
    s.add_argument("--schedule", choices=SCHEDULES, default="belief")
    s.add_argument("--include-direct", action="store_true")
    s.add_argument("--all-zero", action="store_true", help="send the all-zero logical word instead of random ones")
    s.add_argument("--shared-noise", action="store_true", help="same noise for every decoder")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    s.add_argument("--out", help="write rows here instead of stdout")
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bound", help="analytic failure bounds")
    b.add_argument("--n", required=True, help='logical sizes: "8", "2,6,10", or "2..40"')
    b.add_argument("--eps", required=True, help="flip probabilities, comma separated")
    b.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    b.add_argument("--out", help="write rows here instead of stdout")
    b.set_defaults(func=cmd_bound)

    return p


_parser = functools.cache(build_parser)  # main's parser, built once per process; parsing leaves it as it was


def cmd_graph(args) -> int:
    fg = graph_for(args.kind, args.n)
    pairs = pair_table(args.n)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "n_vars": fg.n_vars, "n_checks": fg.n_checks, "n": args.n,
                          "pairs": [list(pq) for pq in pairs], "checks": [list(c) for c in fg.checks]}))
    else:
        print(f"kind: {args.kind}")
        print(f"n: {args.n}")
        print(f"n_vars: {fg.n_vars}")
        print(f"n_checks: {fg.n_checks}")
        print("pairs: " + " ".join(f"({i},{j})" for i, j in pairs))
        for ci, c in enumerate(fg.checks):
            print(f"check {ci}: " + " ".join(str(v) for v in c))
    return 0


def cmd_decode(args) -> int:
    word = as_bits(args.word)
    n = num_logical(word.size)
    if args.n is not None and args.n != n:
        raise DimensionError(f"--n {args.n} does not match word length {word.size} (implies n={n})")
    model = NoiseModel(args.eps)
    if args.decoder == "majority":
        out = majority_vote_decode(word, include_direct=args.include_direct)
    elif args.decoder == "mle":
        out = mle_decode(word, model)
    else:
        fg = graph_for(args.graph, n)
        out = bp_decode(fg, channel_prior(word, model), iterations=args.iterations,
                        schedule=args.schedule, observed=word)
    print(f"decoder: {args.decoder}")
    print(f"n: {n}")
    print(f"observed: {_bits_str(word)}")
    print(f"word: {_bits_str(out.word)}")
    print(f"consecutive: {_bits_str(out.consecutive)}")
    print(f"logical: {_bits_str(logical_from_consecutive(out.consecutive))}")
    print(f"iterations: {out.iterations}")
    print(f"converged: {'yes' if out.converged else 'no'}")
    if out.degenerate:
        print("degenerate: yes")
    if out.beliefs is not None:
        print("beliefs:")
        for v in range(word.size):
            i, j = index_pair(v, n)
            print(f"  g({i},{j}): p0={_fmt(out.beliefs[v, 0])} p1={_fmt(out.beliefs[v, 1])}")
    return 0


def cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed}", file=sys.stderr)
    config = SimConfig(
        n_values=_parse_int_list(args.n),
        eps_values=_parse_float_list(args.eps),
        decoders=tuple(args.decoder.split(",")),
        trials=args.trials,
        seed=seed,
        graph=args.graph,
        bp_iterations=args.iterations,
        schedule=args.schedule,
        include_direct=args.include_direct,
        all_zero=args.all_zero,
        shared_noise=args.shared_noise,
    )
    if args.out is not None:
        _check_out(args.out)
    sweep = run_sweep(config, threads=args.threads)
    rows = [{c: getattr(r, c) for c in OUTPUT_COLUMNS} for r in sweep.rows]
    with _open_out(args.out) as stream_:
        _emit(rows, OUTPUT_COLUMNS, args.format, stream_)
    for e in sweep.errors:
        print(f"error: {e.decoder} n={e.n} eps={_fmt(e.epsilon)}: {e.message}", file=sys.stderr)
    return 2 if sweep.errors else 0


def cmd_bound(args) -> int:
    # Every row is computed before any output, so a bad value prints nothing.
    ns, eps = _parse_int_list(args.n), _parse_float_list(args.eps)
    rows = [
        {
            "n": n,
            "epsilon": e,
            "eps_star": epsilon_star(e),
            "chernoff": chernoff_bound(n, e),
            "union_bound": union_bound(n, e),
        }
        for n in ns
        for e in eps
    ]
    with _open_out(args.out) as stream_:
        _emit(rows, _BOUND_COLUMNS, args.format, stream_)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LhzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away. As the Python docs advise for SIGPIPE, point
        # stdout at devnull so the interpreter's last flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
