"""Benchmark entry point: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Set-up is timed from process start to ``ready`` in several fresh worker
interpreters; the last of them goes on to the timed passes.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, with the end-to-end metrics of BENCHMARK.json for ``--trace 0``
and its per-layer metrics for ``--trace 1``.  The lines before it report the
environment, the per-command timings and the failure fraction, and the same
is written to ``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.

Exits non-zero without a result when the checkout has no ``src/insrecon``,
when a worker fails or when it runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench"


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, work: str, setup_only: bool, trace_out: str | None):
    """(process, seconds from start to its ``ready`` line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, elapsed


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure(args, scratch: str) -> tuple[list, dict]:
    """(set-up seconds of each worker, the last worker's result)."""
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        proc, elapsed = start_worker(args, os.path.join(scratch, f"probe{k}"), True, None)
        finish(proc)
        setups.append(elapsed)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}.tsv") if args.trace else None
    proc, elapsed = start_worker(args, os.path.join(scratch, "run"), False, trace_out)
    setups.append(elapsed)
    lines = finish(proc).strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return setups, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the same workloads at desk-check sizes (self-test)")
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "insrecon", "cli.py")):
        print("error: run from the root of an insrecon checkout (no src/insrecon)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setups, res = measure(args, scratch)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cmds = res["commands"]
    if args.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values = {"wall_s": cmds["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {"commit": git_commit(root), "python": platform.python_version(),
           "numpy": res["numpy"], "nproc": os.cpu_count(), "cpu": cpu_model(),
           "seed": args.seed, "workload": args.workload, "trace": args.trace,
           "scale": args.scale, "seconds": args.seconds}
    fail_frac = res["failed"] / res["attempted"]
    report = {"env": env, "pass_wall_s": res["pass_wall_s"], "setup_samples_s": setups,
              "commands": cmds, "fail_frac": fail_frac,
              "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("pass_wall_s=" + ",".join(f"{s:.4f}" for s in res["pass_wall_s"])
          + " setup_samples_s=" + ",".join(f"{s:.4f}" for s in setups))
    print("commands (median per pass, untraced) "
          + " ".join(f"{k}={v:.4f}" for k, v in cmds.items()))
    print(f"fail_frac={fail_frac:.4f} ({res['failed']}/{res['attempted']})")
    for name, m in metrics.items():
        print(f"metric {name}={m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
