"""Command-line front end.

Subcommands: ball, classify, build, verify, coverage, simulate, table.
Human-readable output by default; ``--format records`` switches to stable
key=value lines.  Every randomized command takes an explicit ``--seed`` so
runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from typing import List, Optional

from . import balls, codes, confusability, recon
from .seqs import BitSeq


def _bitseq(text: str) -> BitSeq:
    try:
        return BitSeq(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _residue_vector(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def cmd_ball(args) -> int:
    ball = balls.insertion_ball(args.x, args.t)
    if args.size_only:
        print(len(ball))
    else:
        sys.stdout.write(ball.to_lines())
    return 0


def cmd_classify(args) -> int:
    """Emit the verdict as key=value lines.

    Fields: kind; typeA_u/typeA_w/typeA_v and typeB_u/typeB_v/typeB_w/
    typeB_a/typeB_b when the witnesses exist; i1; i2_class/i2_lo/i2_hi
    (omitted for n < 4 where the size trichotomy does not apply); with
    --verify also i1_actual and i2_actual.
    """
    x, y = args.x, args.y
    if x == y:
        raise ValueError("classify requires two distinct sequences")
    verdict = confusability.classify_pair(x, y)
    lines = [f"kind={verdict.kind.value}"]
    if verdict.type_a_witness is not None:
        w = verdict.type_a_witness
        lines.append(f"typeA_u={w.u} typeA_w={w.w} typeA_v={w.v}")
    if verdict.type_b_witness is not None:
        w = verdict.type_b_witness
        lines.append(
            f"typeB_u={w.u} typeB_v={w.v} typeB_w={w.w} typeB_a={w.a} typeB_b={w.b}"
        )
    lines.append(f"i1={confusability.predict_i1_size(x, y)}")
    if x.n >= 4:
        rng = confusability.predict_i2_range(x, y)
        lines.append(f"i2_class={rng.label} i2_lo={rng.lo} i2_hi={rng.hi}")
    if args.verify:
        lines.append(f"i1_actual={len(balls.intersect_balls(x, y, 1))}")
        lines.append(f"i2_actual={len(balls.intersect_balls(x, y, 2))}")
    print("\n".join(lines))
    return 0


def cmd_window(args) -> int:
    got = confusability.classify_window(args.a, args.b, args.v)
    x, y = confusability.window_pair(args.a, args.b, args.v)
    n_prime = args.v.n + 3
    lines = [
        f"offset={int(got.offset)}",
        f"matched_form={got.matched_form or '-'}",
        f"n_prime={n_prime} predicted_size={n_prime + int(got.offset)}",
        f"x={x} y={y}",
    ]
    if args.verify:
        lines.append(f"size_actual={len(balls.intersect_balls(x, y, 2))}")
    print("\n".join(lines))
    return 0


def _flag(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"family {args.family} requires --{name}")
    return value


def _build_params(args) -> codes.CodeParams:
    """The family's record from the flags named after its fields; the five
    residues a1..a5 of twoins come from --avec."""
    cls = codes.FAMILIES[args.family]
    names = [f.name for f in fields(cls)]
    if names[1:] == ["a1", "a2", "a3", "a4", "a5"]:
        vec = _flag(args, "avec")
        if len(vec) != 5:
            raise ValueError(f"{args.family} needs --avec with 5 residues a1,...,a5")
        return cls(args.n, *vec)
    return cls(*(_flag(args, name) for name in names))


def cmd_build(args) -> int:
    if args.best:
        params, code = codes.best_coset(args.family, args.n, P=args.P)
    else:
        params = _build_params(args)
        code = codes.build_code(params)
    codes.write_code_file(args.out, params, code)
    body = codes.format_header(params).partition(" params=")[2]
    if args.format == "records":
        print(f"family={params.family} n={params.n} params={body} size={len(code)} out={args.out}")
    else:
        print(f"wrote {params.family} code: n={params.n} params=[{body}] size={len(code)} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    _, code = codes.read_code_file(args.code_file)
    result = codes.verify_reconstruction_code(code, args.t, args.N)
    if args.format == "records":
        print(f"ok={str(result.ok).lower()} vacuous={str(result.vacuous).lower()} t={args.t} N={args.N}")
    else:
        note = " (vacuous: fewer than two codewords)" if result.vacuous else ""
        print(f"reconstruction code at t={args.t}, N={args.N}: {'yes' if result.ok else 'no'}{note}")
    return 0


def cmd_coverage(args) -> int:
    _, code = codes.read_code_file(args.code_file)
    value = balls.read_coverage(code, args.t)
    if args.format == "records":
        print(f"coverage={value} t={args.t} size={len(code)}")
    else:
        print(f"read coverage at t={args.t}: {value}")
    return 0


def cmd_simulate(args) -> int:
    _, code = codes.read_code_file(args.code_file)
    summary = recon.run_experiment(code, args.t, args.N, args.trials, args.seed)
    head = (
        f"trials={summary.trials} reads={summary.reads} t={summary.t} "
        f"unique={summary.unique} ambiguous={summary.ambiguous} "
        f"no_candidate={summary.no_candidate} correct={summary.correct}"
    )
    if summary.trials:
        head += (
            f" unique_rate={summary.unique_rate:.6f}"
            f" ambiguous_rate={summary.ambiguous_rate:.6f}"
            f" mean_candidates={summary.mean_candidates:.6f}"
        )
    print(head)
    if args.format == "records":
        for row in summary.rows:
            print(
                f"trial={row.trial} status={row.status.value} "
                f"n_candidates={row.n_candidates} correct={int(row.correct)}"
            )
    return 0


# (family, its N range at length n), from the most reads to the fewest
_REGIMES = (
    ("all", lambda n: f">{2 * n + 4}"),
    ("tworead", lambda n: f"{n + 6}..{2 * n + 4}"),
    ("np4", lambda n: f"{n + 4}..{n + 5}"),
    ("vt", lambda n: f"7..{n + 3}"),
    ("twoins", lambda n: "1..6"),
)


def _table_rows(n: int, P: int):
    """One row per regime: its family's largest coset; a family without P
    ignores it."""
    for family, n_range in _REGIMES:
        try:
            sweep = codes.coset_sweep(family, n, P)
            if not sweep.keys.size:
                raise ValueError("all cosets empty")
            best = sweep.best()
            params, size = sweep.params(best), int(sweep.sizes[best])
            red = n - math.log2(size)
            bound = n - math.log2(sweep.ambient_size) + math.log2(sweep.keys.size)
            body = codes.format_header(params).partition(" params=")[2] or "-"
            yield (n, n_range(n), family, body, size, f"{red:.3f}", f"{bound:.3f}")
        except ValueError as exc:
            yield (n, n_range(n), family, "-", "-", "-", f"unavailable: {exc}")


def cmd_table(args) -> int:
    lo_hi = args.n_range.split(":")
    if len(lo_hi) != 2:
        raise ValueError("--n-range must look like LO:HI")
    lo, hi = int(lo_hi[0]), int(lo_hi[1])
    if args.t != 2:
        raise ValueError("the table sweep is defined for --t 2")
    header = ("n", "N_range", "family", "params", "size", "redundancy", "pigeonhole")
    if args.format == "records":
        for n in range(lo, hi + 1):
            for row in _table_rows(n, args.P):
                print(" ".join(f"{k}={v}" for k, v in zip(header, row)))
    else:
        widths = (4, 12, 9, 24, 7, 11, 11)
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for n in range(lo, hi + 1):
            for row in _table_rows(n, args.P):
                print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insrecon",
        description="Binary two-insertion reconstruction codes: balls, confusability, codes, decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="enumerate an insertion ball")
    p.add_argument("x", type=_bitseq, help="center sequence over {0,1}")
    p.add_argument("--t", type=int, required=True, help="number of insertions")
    p.add_argument("--size-only", action="store_true", help="print only |I_t(x)|")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("classify", help="confusability verdict for a pair")
    p.add_argument("x", type=_bitseq)
    p.add_argument("y", type=_bitseq)
    p.add_argument("--verify", action="store_true", help="add brute-force ball intersections")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("window", help="classify a boundary window (a, b, v)")
    p.add_argument("a", type=int, choices=(0, 1))
    p.add_argument("b", type=int, choices=(0, 1))
    p.add_argument("v", type=_bitseq, nargs="?", default=BitSeq(""),
                   help="inner sequence; omit for the empty one")
    p.add_argument("--verify", action="store_true", help="add the brute-force size")
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("build", help="materialize a code coset into a file")
    p.add_argument("family", choices=sorted(codes.FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--avec", type=_residue_vector, help="comma-separated residues")
    p.add_argument("--bvec", type=_residue_vector, help="comma-separated residues")
    p.add_argument("--best", action="store_true", help="pick the largest coset instead of explicit residues")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check the reconstruction-code property")
    p.add_argument("code_file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coverage", help="exact read coverage of a code file")
    p.add_argument("code_file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("simulate", help="seeded sample-and-decode experiment")
    p.add_argument("code_file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True, help="distinct reads per trial")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table", help="redundancy table across the read regimes")
    p.add_argument("--n-range", required=True, help="inclusive range LO:HI")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--P", type=int, default=9)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
