"""One run of one workload, in a fresh interpreter started by run.py.

The worker imports insrecon from the checkout's ``src/``, runs the workload's
set-up commands, and prints ``ready``.  With ``--setup-only`` it stops there
(run.py starts several such workers to time set-up).  Otherwise it runs timed
passes back to back, one command at a time through ``insrecon.cli.main``,
until ``--seconds`` have passed and at least two passes are done.  With
``--trace 1`` the passes alternate untraced and traced, so one run gives the
tracing overhead.  Every output is checked after the clock stops, and the
worker prints one JSON line with the timings, the failures and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from spans import LAYERS, Tracer

CMD_KINDS = ("build", "verify", "coverage", "simulate", "table")


def import_cli(root: str):
    """insrecon.cli from ``<root>/src``, refusing any other installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import insrecon.cli

    if not os.path.abspath(insrecon.__file__).startswith(src + os.sep):
        raise ImportError(f"insrecon was imported from {insrecon.__file__}, not {src}")
    return insrecon.cli


def run_command(cli, cmd: workloads.Cmd, work: str):
    """(seconds, exit code, stdout) of one in-process CLI command."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd.args(work))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command; the run goes on
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc, buf.getvalue()


def run_passes(cli, wl: workloads.Workload, work: str, seconds: float,
               tracer: Tracer | None):
    """Closed loop: the next command starts when the previous one returns."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        times, rcs, outs = [], [], []
        if traced:
            tracer.run_id = len(passes)
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            for cmd in wl.commands:
                with tracer.span("cli.main") if traced else contextlib.nullcontext():
                    dt, rc, out = run_command(cli, cmd, work)
                times.append(dt)
                rcs.append(rc)
                outs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t0,
                       "cpu_s": time.process_time() - c0,
                       "times": times, "rcs": rcs, "outs": outs})
    return passes


def find_problems(wl: workloads.Workload, setup_runs, passes, work: str, seed: int):
    """Problems keyed by (pass index or 'setup', command index)."""
    problems = {}

    def add(key, msgs):
        if msgs:
            problems.setdefault(key, []).extend(msgs)

    for i, (cmd, (_, rc, out)) in enumerate(zip(wl.setup, setup_runs)):
        add(("setup", i), workloads.check_output(cmd, rc, out, wl.min_words))
    first = passes[0]["outs"]
    for p, ps in enumerate(passes):
        for i, cmd in enumerate(wl.commands):
            add((p, i), workloads.check_output(cmd, ps["rcs"][i], ps["outs"][i],
                                               wl.min_words))
            if ps["outs"][i] != first[i]:
                add((p, i), ["stdout differs from the first pass"])
        for i, msgs in workloads.check_pass(wl.commands, ps["outs"]).items():
            add((p, i), msgs)
    # the code files left by set-up and the last pass
    builds = [(("setup", i), cmd, out) for i, (cmd, (_, _, out))
              in enumerate(zip(wl.setup, setup_runs))]
    builds += [((len(passes) - 1, i), cmd, passes[-1]["outs"][i])
               for i, cmd in enumerate(wl.commands)]
    for key, cmd, out in builds:
        if cmd.kind != "build" or key in problems:
            continue
        path = cmd.args(work)[cmd.argv.index("--out") + 1]
        try:
            add(key, workloads.check_code_file(path, out, wl.min_words, seed))
        except (OSError, ValueError, KeyError) as exc:
            add(key, [f"{path}: unreadable code file: {exc!r}"])
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def command_metrics(wl: workloads.Workload, passes):
    """End-to-end timings over the untraced passes (medians of per-pass sums)."""
    plain = [p for p in passes if not p["traced"]]
    out = {"wall_s": _median([p["wall_s"] for p in plain])}
    for kind in CMD_KINDS:
        if any(c.kind == kind for c in wl.commands):
            out[f"{kind}_s"] = _median([
                sum(t for c, t in zip(wl.commands, p["times"]) if c.kind == kind)
                for p in plain])
    trials = sum(int(c.expect["trials"]) for c in wl.commands if c.kind == "simulate")
    if trials:
        out["trials_per_s"] = trials / out["simulate_s"]
    return out


def layer_metrics(summary, wall: float, cpu: float) -> dict:
    """Per-layer metrics of one traced pass from its span summary."""

    def g(name, key):
        return summary[name][key] if name in summary else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("seqs.indicator", "codes.coset_groups", "codes.best_coset",
                 "balls.read_coverage", "balls.coverage_less_than",
                 "balls.insertion_ball", "balls.deletion_vals", "recon.decode",
                 *(f"cli.{k}" for k in CMD_KINDS)):
        m[f"{name}.calls"] = g(name, "calls")
        m[f"{name}.self_s"] = g(name, "self_s")
    m.update({
        "seqs.r_values.self_s": g("seqs.r_values", "self_s"),
        "seqs.r_values.words_in": g("seqs.r_values", "words_in"),
        "seqs.r_values.keep_ratio": ratio(g("seqs.r_values", "words_out"),
                                          g("seqs.r_values", "words_in")),
        "seqs.enum_mb": g("seqs.enum_values", "bytes") / 1e6,
        "codes.ambient_words": g("codes.coset_groups", "ambient"),
        "codes.words_per_s": ratio(g("codes.coset_groups", "ambient"),
                                   g("codes.coset_groups", "incl_s")),
        "codes.scalar_syndrome.calls": g("codes.scalar_syndrome", "calls"),
        "codes.write_code_file.self_s": g("codes.write_code_file", "self_s"),
        "codes.write_code_file.mb": g("codes.write_code_file", "mb"),
        "codes.read_code_file.self_s": g("codes.read_code_file", "self_s"),
        "codes.read_code_file.mb": g("codes.read_code_file", "mb"),
        "balls.read_coverage.pairs": g("balls.read_coverage", "pairs"),
        "balls.read_coverage.pairs_per_s": ratio(g("balls.read_coverage", "pairs"),
                                                 g("balls.read_coverage", "incl_s")),
        "balls.coverage_less_than.pairs": g("balls.coverage_less_than", "pairs"),
        "balls.deletion_vals.words": g("balls.deletion_vals", "words"),
        "recon.run_experiment.self_s": g("recon.run_experiment", "self_s"),
        "recon.unique_ratio": ratio(g("recon.run_experiment", "unique"),
                                    g("recon.run_experiment", "trials")),
        "recon.mean_candidates": ratio(g("recon.run_experiment", "candidates"),
                                       g("recon.run_experiment", "trials")),
        "run.cpu_s": cpu,
        "run.spans": sum(agg["calls"] for agg in summary.values()),
    })
    for layer in LAYERS:
        busy = sum(agg["self_s"] for name, agg in summary.items()
                   if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = ratio(busy, wall)
    return m


def traced_metrics(tracer: Tracer, passes) -> dict:
    traced = [(i, p) for i, p in enumerate(passes) if p["traced"]]
    per_pass = [layer_metrics(tracer.summarize(i), p["wall_s"], p["cpu_s"])
                for i, p in traced]
    m = {k: _median([pm[k] for pm in per_pass]) for k in per_pass[0]}
    m["run.trace_overhead"] = (
        _median([p["wall_s"] for _, p in traced])
        / _median([p["wall_s"] for p in passes if not p["traced"]]) - 1.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory for code files")
    ap.add_argument("--trace-out", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli(os.getcwd())
    wl = workloads.make(args.workload, args.seed, args.scale)
    os.makedirs(args.work, exist_ok=True)
    setup_runs = [run_command(cli, cmd, args.work) for cmd in wl.setup]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    passes = run_passes(cli, wl, args.work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = find_problems(wl, setup_runs, passes, args.work, args.seed)
    for (p, i), msgs in sorted(problems.items(), key=str):
        cmd = wl.setup[i] if p == "setup" else wl.commands[i]
        print(f"FAIL pass={p} cmd={' '.join(cmd.argv)}: {'; '.join(msgs)}", file=sys.stderr)

    result = {
        "attempted": len(wl.setup) + len(passes) * len(wl.commands),
        "failed": len(problems),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "commands": command_metrics(wl, passes),
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = traced_metrics(tracer, passes)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
