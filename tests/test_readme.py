"""The README's library tour and CLI block run, and the values in their
comments hold."""

import ast
import pathlib

from insrecon import cli
from insrecon.confusability import Confusability
from insrecon.recon import DecodeStatus
from insrecon.seqs import BitSeq

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# every commented expression line of the tour, with the value it must have
CLAIMS = {
    "len(insertion_ball(x, 2))            # 29 = 1 + 7 + 21 supersequences of length 7": 29,
    "v.kind                               # Confusability.BOTH": Confusability.BOTH,
    "v.type_a_witness.assemble()          # reassembles the input pair bit-exactly":
        (BitSeq("11101010"), BitSeq("11010110")),
    "len(code)                            # 95 codewords": 95,
    "read_coverage(code, 2)               # 6 <= 15 = n+3": 6,
    "decode(bundle, code, 2).status       # DecodeStatus.UNIQUE": DecodeStatus.UNIQUE,
}


def library_tour():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_and_its_comments_hold():
    tour = library_tour()
    lines = tour.splitlines()
    namespace, values = {}, {}
    for node in ast.parse(tour).body:
        if isinstance(node, ast.Expr):
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            values[lines[node.lineno - 1]] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert {line: values[line] for line in values if "#" in line} == CLAIMS


# the whole stdout, split on whitespace, of each CLI line whose comment quotes it
CLI_CLAIMS = {
    "ball 10 --t 1": ["010", "100", "101", "110"],
    "ball 10 --t 1 --size-only": ["4"],
    "classify 0011 1110": ["kind=neither", "i1=0", "i2_class=<=6", "i2_lo=0", "i2_hi=6"],
}


def cli_block():
    text = README.read_text(encoding="utf-8")
    return text.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]


def test_cli_block_runs_and_its_comments_hold(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the block writes its code files to the working directory
    outputs = {}
    for line in cli_block().splitlines():
        program, *argv = line.split("#", 1)[0].split()
        assert program == "insrecon", line
        assert cli.main(argv) == 0, line
        outputs[" ".join(argv)] = capsys.readouterr().out.split()
    assert {command: outputs[command] for command in CLI_CLAIMS} == CLI_CLAIMS
