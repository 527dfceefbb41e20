"""Layer-attributed spans recorded around calls between insrecon modules.

The tracer replaces, for the length of a traced pass, the name through which
one module calls into another (the caller's binding, e.g. ``recon._deletion_vals``)
with a wrapper that records a span: name, start, end, parent span and run id.
No source file of the program is edited.  A span's name is
``<layer>.<function>`` where the layer is the module that owns the function.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover;
calls are nested and single-threaded, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("seqs", "balls", "codes", "recon", "cli")

# How many words a call worked on, from its arguments and result.
Counter = Callable[[tuple, object], Dict[str, float]]


def _file_mb(args, out):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _r_values(args, out):
    return {"words_in": float(1 << args[0]), "words_out": float(out.size)}


def _pairs(args, out):
    """Pairs of codewords the scan decides, whatever it skips on the way."""
    return {"pairs": float(comb(len(args[0]), 2))}


def _experiment(args, out):
    return {"trials": out.trials, "unique": out.unique,
            "candidates": sum(r.n_candidates for r in out.rows)}


# (module, attribute, span name, counter).  The attribute is the binding the
# caller looks up at call time, so replacing it intercepts exactly the calls
# that cross from the caller into the owning layer.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("insrecon.cli", "cmd_build", "cli.build", None),
    ("insrecon.cli", "cmd_verify", "cli.verify", None),
    ("insrecon.cli", "cmd_coverage", "cli.coverage", None),
    ("insrecon.cli", "cmd_simulate", "cli.simulate", None),
    ("insrecon.cli", "cmd_table", "cli.table", None),
    ("insrecon.codes", "best_coset", "codes.best_coset", None),
    ("insrecon.codes", "_coset_groups", "codes.coset_groups",
     lambda a, out: {"ambient": float(out[1])}),
    ("insrecon.codes", "two_insertion_syndrome", "codes.scalar_syndrome", None),
    ("insrecon.codes", "write_code_file", "codes.write_code_file", _file_mb),
    ("insrecon.codes", "read_code_file", "codes.read_code_file", _file_mb),
    ("insrecon.codes", "r_values", "seqs.r_values", _r_values),
    ("insrecon.codes", "indicator", "seqs.indicator", None),
    ("insrecon.seqs", "_enum_values", "seqs.enum_values",
     lambda a, out: {"bytes": float(out.nbytes)}),
    ("insrecon.codes", "coverage_less_than", "balls.coverage_less_than", _pairs),
    ("insrecon.balls", "read_coverage", "balls.read_coverage", _pairs),
    ("insrecon.recon", "insertion_ball", "balls.insertion_ball", None),
    ("insrecon.recon", "_deletion_vals", "balls.deletion_vals",
     lambda a, out: {"words": float(len(out))}),
    ("insrecon.recon", "decode", "recon.decode", None),
    ("insrecon.recon", "run_experiment", "recon.run_experiment", _experiment),
)


class Tracer:
    """Collects spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        # [name, start, end, parent index, run id, counts or None]
        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self.run_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count: Optional[Counter]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around one CLI command."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def install(self) -> None:
        """Wrap every boundary that exists; a binding that is gone is skipped."""
        for module, attr, name, count in BOUNDARIES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\trun\tname\tstart\tend\n")
            for i, (name, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{run}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def summarize(self, run_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, summed counts."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child = defaultdict(float)
        for _, (name, start, end, parent, _, _) in rows:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _, counts) in rows:
            agg = out[name]
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, val in (counts or {}).items():
                agg[key] += val
        return out
