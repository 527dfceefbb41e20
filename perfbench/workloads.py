"""Workload definitions and the pinned outputs every pass is checked against.

A workload is a fixed list of ``insrecon`` CLI commands: ``setup`` commands
run once, untimed, and ``commands`` make up one timed pass.  Each command
carries the ``key=value`` fields its stdout must show.  The pinned values were taken from the library at the
commit that introduced this benchmark; they are exact results, so any change
to them is a correctness failure, not a performance change.

Two scales exist: ``full`` is what the benchmark measures, ``tiny`` is the
same shape at desk-check sizes for the harness self-test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

WORKLOADS = ("check", "sweep", "decode")

# Family -> claimed number of reads N at length n for t = 2 (README table).
CLAIMED_N = {"vt": lambda n: 7, "np4": lambda n: n + 4, "np5": lambda n: n + 5}

# Every workload code has at least this many words at each scale; below it
# the pair scans would check next to nothing.
MIN_WORDS = {"full": 300, "tiny": 30}

# Codewords drawn per code file for the membership check when n is too large
# to check every word.
MEMBER_SAMPLE = 1000
MEMBER_FULL_MAX_N = 18


@dataclass(frozen=True)
class Cmd:
    """One CLI invocation; ``{work}`` in argv is the run's scratch directory."""

    argv: Tuple[str, ...]
    expect: Mapping[str, str] = field(default_factory=dict)
    # simulate only: every trial must decode uniquely (N exceeds coverage)
    exact: bool = False

    @property
    def kind(self) -> str:
        return self.argv[0]

    def args(self, work: str) -> list:
        return [a.replace("{work}", work) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    setup: Tuple[Cmd, ...]
    commands: Tuple[Cmd, ...]
    min_words: int


def _build(spec: tuple) -> Cmd:
    family, P, n, params, size = spec
    return Cmd(
        ("build", family, "--n", str(n), "--best", *(("--P", str(P)) if P else ()),
         "--out", f"{{work}}/{family}{n}.txt", "--format", "records"),
        {"family": family, "n": str(n), "params": params, "size": str(size)},
    )


def _verify(family: str, n: int) -> Cmd:
    N = CLAIMED_N[family](n)
    return Cmd(
        ("verify", f"{{work}}/{family}{n}.txt", "--t", "2", "--N", str(N),
         "--format", "records"),
        {"ok": "true", "vacuous": "false", "N": str(N)},
    )


def _coverage(family: str, n: int, value: int) -> Cmd:
    return Cmd(
        ("coverage", f"{{work}}/{family}{n}.txt", "--t", "2", "--format", "records"),
        {"coverage": str(value)},
    )


def _simulate(family: str, n: int, N: int, trials: int, seed: int, exact: bool) -> Cmd:
    return Cmd(
        ("simulate", f"{{work}}/{family}{n}.txt", "--t", "2", "--N", str(N),
         "--trials", str(trials), "--seed", str(seed)),
        {"trials": str(trials), "reads": str(N), "no_candidate": "0"},
        exact,
    )


# (family, P, n, best params, size) of every code a workload builds.
_CHECK_SMALL = {
    "full": ((("vt", None, 14, "a=0", 1096), 6),
             (("np5", 9, 14, "P=9,c=0,d=0", 724), 17),
             (("np4", 18, 14, "P=18,c=5,d=0", 304), 6)),
    "tiny": ((("vt", None, 10, "a=0", 94), 6),
             (("np5", 9, 10, "P=9,c=3,d=1", 51), 6),
             (("np4", 18, 10, "P=18,c=12,d=1", 36), 6)),
}
_CHECK_LARGE = {
    "full": (("vt", None, 18, "a=0", 13798),
             ("np4", 18, 18, "P=18,c=2,d=1", 3859),
             ("np5", 9, 18, "P=9,c=0,d=0", 10584)),
    "tiny": (("vt", None, 11, "a=0", 172),
             ("np4", 18, 11, "P=18,c=13,d=0", 59),
             ("np5", 9, 11, "P=9,c=0,d=0", 97)),
}
_SWEEP = {
    "full": (("vt", None, 22, "a=0", 182362),
             ("np5", 9, 22, "P=9,c=0,d=0", 157526),
             ("np4", 18, 22, "P=18,c=3,d=0", 50626),
             ("tworead", 3, 22, "P=3,c=0,d=0", 393844)),
    "tiny": (("vt", None, 12, "a=0", 316),
             ("np5", 9, 12, "P=9,c=8,d=0", 190),
             ("np4", 18, 12, "P=18,c=17,d=0", 95),
             ("tworead", 3, 12, "P=3,c=0,d=0", 472)),
}
# sha256 of `table --n-range R:R --format records` stdout
_TABLE = {
    "full": ("16:16", "464a5bef8b513a51edac7cd12a67ed18a642c61a81c2ee981c6f5d9e999bb4ff"),
    "tiny": ("8:8", "290ecb557f518c31f625071677b08cdb63fe2205e36228e87fe768354344fb2d"),
}
# (code, reads N, trials, every trial unique?) of the two decode commands:
# vt at N=2 is survivor-heavy, np5 at N=n+5 is read-heavy
_DECODE = {
    "full": ((("vt", None, 18, "a=0", 13798), 2, 2000, False),
             (("np5", 9, 18, "P=9,c=0,d=0", 10584), 23, 600, True)),
    "tiny": ((("vt", None, 10, "a=0", 94), 2, 30, False),
             (("np5", 9, 10, "P=9,c=3,d=1", 51), 15, 30, True)),
}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name`; `seed` drives everything randomized in it."""
    if name == "check":
        cmds = []
        for spec, cov in _CHECK_SMALL[scale]:
            family, n = spec[0], spec[2]
            cmds += [_build(spec), _verify(family, n), _coverage(family, n, cov)]
        for spec in _CHECK_LARGE[scale]:
            cmds += [_build(spec), _verify(spec[0], spec[2])]
        return Workload((), tuple(cmds), MIN_WORDS[scale])
    if name == "sweep":
        rng, digest = _TABLE[scale]
        cmds = [_build(spec) for spec in _SWEEP[scale]]
        cmds.append(Cmd(("table", "--n-range", rng, "--format", "records"),
                        {"sha256": digest}))
        return Workload((), tuple(cmds), MIN_WORDS[scale])
    if name == "decode":
        setup, cmds = [], []
        for spec, N, trials, exact in _DECODE[scale]:
            setup.append(_build(spec))
            cmds.append(_simulate(spec[0], spec[2], N, trials, seed, exact))
        return Workload(tuple(setup), tuple(cmds), MIN_WORDS[scale])
    raise ValueError(f"unknown workload {name!r}")


def records(stdout: str) -> Dict[str, str]:
    """The key=value fields of a one-line records output."""
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _int(fields: Mapping[str, str], key: str) -> int:
    try:
        return int(fields.get(key, ""))
    except ValueError:
        return -1


def check_output(cmd: Cmd, rc: int, stdout: str, min_words: int) -> List[str]:
    """Problems with one command's output; empty when it matches its pins."""
    if rc != 0:
        return [f"exit code {rc}"]
    if cmd.kind == "table":
        got = {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    else:
        got = records(stdout)
    problems = [f"{k}={got.get(k)} (pinned {v})" for k, v in cmd.expect.items()
                if got.get(k) != v]
    if cmd.kind in ("build", "coverage") and _int(got, "size") < min_words:
        problems.append(f"vacuous: size={got.get('size')} < {min_words} words")
    if cmd.kind == "simulate":
        if got.get("correct") != got.get("unique"):
            problems.append(f"correct={got.get('correct')} != unique={got.get('unique')}")
        if cmd.exact and got.get("unique") != got.get("trials"):
            problems.append(f"unique={got.get('unique')} != trials={got.get('trials')}")
    return problems


def check_pass(commands: Sequence[Cmd], stdouts: Sequence[str]) -> Dict[int, List[str]]:
    """Cross-command problems in one pass: verify must agree with coverage."""
    verdicts = {}
    for i, (cmd, out) in enumerate(zip(commands, stdouts)):
        if cmd.kind == "verify":
            verdicts[cmd.argv[1]] = (i, records(out))
    problems: Dict[int, List[str]] = {}
    for cmd, out in zip(commands, stdouts):
        if cmd.kind != "coverage" or cmd.argv[1] not in verdicts:
            continue
        i, ver = verdicts[cmd.argv[1]]
        coverage = _int(records(out), "coverage")
        want = "true" if coverage < _int(ver, "N") else "false"
        if ver.get("ok") != want:
            problems.setdefault(i, []).append(
                f"verify ok={ver.get('ok')} disagrees with coverage={coverage}")
    return problems


def _member_predicate(family: str, params: str):
    from insrecon import codes

    kv = dict(item.partition("=")[::2] for item in params.split(","))
    if family == "vt":
        return lambda x: codes.vt_member(x, int(kv["a"]))
    pred = {"np4": codes.np4_member, "np5": codes.np5_member,
            "tworead": codes.two_read_member}[family]
    P, c, d = int(kv["P"]), int(kv["c"]), int(kv["d"])
    return lambda x: pred(x, P, c, d)


def check_code_file(path: str, build_out: str, min_words: int, seed: int) -> List[str]:
    """The file a build wrote: its size, and codewords checked by membership.

    Every codeword is checked up to n = MEMBER_FULL_MAX_N; above it a sample
    of MEMBER_SAMPLE codewords drawn with `seed`.
    """
    from insrecon.seqs import BitSeq

    got = records(build_out)
    n, size = _int(got, "n"), _int(got, "size")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    problems = []
    if len(body) != size:
        problems.append(f"{path}: {len(body)} codewords, build reported {size}")
    if len(body) < min_words:
        problems.append(f"{path}: vacuous, {len(body)} < {min_words} words")
    if n > MEMBER_FULL_MAX_N:
        body = random.Random(seed).sample(body, min(MEMBER_SAMPLE, len(body)))
    member = _member_predicate(got["family"], got["params"])
    bad = [ln for ln in body if len(ln) != n or not member(BitSeq.from_int(int(ln, 2), n))]
    if bad:
        problems.append(f"{path}: {len(bad)} of {len(body)} checked words fail membership,"
                        f" first {bad[0]}")
    return problems
