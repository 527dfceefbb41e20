"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:

* every workload, traced and untraced, ends with the one-line JSON result
  (correct, attempted, failed, metrics), carrying exactly the metrics
  BENCHMARK.json names, each with its unit;
* a deliberately wrong pinned expectation counts as a failed command;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def check_result_lines(spec) -> None:
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, (name, trace, proc.stderr)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
            assert res["correct"] is True and res["failed"] == 0, (name, trace, proc.stderr)
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1
            assert list(res["metrics"]) == [m["name"] for m in wanted], (name, trace)
            for m in wanted:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"], got)
                value = got["value"]
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
            print(f"ok   {name} trace={trace}: {len(wanted)} metrics with units")


def check_wrong_pin() -> None:
    cli = worker.import_cli(os.getcwd())
    for name, kind, key in (("check", "coverage", "coverage"), ("sweep", "table", "sha256")):
        wl = workloads.make(name, 1, "tiny")
        idx = next(i for i, c in enumerate(wl.commands) if c.kind == kind)
        bad = dataclasses.replace(wl.commands[idx],
                                  expect={**wl.commands[idx].expect, key: "wrong"})
        wl = dataclasses.replace(wl, commands=wl.commands[:idx] + (bad,)
                                 + wl.commands[idx + 1:])
        work = tempfile.mkdtemp(prefix="selftest-", dir=".perfbench")
        try:
            passes = worker.run_passes(cli, wl, work, 0.0, None)
            problems = worker.find_problems(wl, [], passes, work, 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        assert sorted(problems) == [(p, idx) for p in range(len(passes))], problems
        print(f"ok   {name}: a wrong pinned {key} fails {len(problems)} of "
              f"{len(passes) * len(wl.commands)} commands")


def check_bare_directory() -> None:
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=".perfbench")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(".perfbench", exist_ok=True)
    check_result_lines(spec)
    check_wrong_pin()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
