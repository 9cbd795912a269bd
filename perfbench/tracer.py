"""Outside-in span tracer for the occupancy CLI.

Wraps the functions listed in FUNCTIONS from outside, so the program
itself carries no instrumentation.  Each call to a wrapped function records
one span (name, start, end, parent); spans stay in memory and are written
to a file when the traced command ends.  Time spent in a function that is
not listed counts as self time of the nearest listed caller.

Run a traced CLI invocation as

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz -- verify --model m.json ...

The exit code is the CLI's.  ``layer_table`` turns a spans file into
per-layer call counts, self times and byte counts.
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import sys
import threading
import time

import numpy as np

# what to wrap -> the fields the benchmark reports for its span.  An entry is
# "module.function", or "module.Class.method" for a method reached through
# instances, whose span drops the class name ("model.eval").
FUNCTIONS = {
    "cli.main": ("self_s",),
    "model.FunctionFamily.eval": ("calls", "self_s"),
    "model.FunctionFamily.eval_batch": ("calls", "self_s"),
    "model.check_assumptions": ("self_s",),
    "exact.transition_matrix": ("calls", "self_s"),
    "exact.marginal_trajectory": ("self_s",),
    "exact.distribution": ("self_s",),
    "exact.multisite_probability": ("self_s",),
    "exact.path_probability": ("self_s",),
    "exact.spin_generator": ("self_s",),
    "exact.poisson_mixture": ("calls", "self_s"),
    "exact.spin_law": ("self_s",),
    "order.vacancy_transform": ("self_s",),
    "order.subset_products": ("self_s",),
    "order.path_orthant": ("self_s",),
    "meanfield.iterate": ("calls", "self_s"),
    "meanfield.ode_rhs": ("calls", "self_s"),
    "meanfield.integrate_ode": ("self_s",),
    "indep.path_probability": ("calls", "self_s"),
    "indep.multisite_probability": ("self_s",),
    "simulate.step_occupancy": ("calls", "self_s"),
    "streams.UniformArray.chunk_values": ("calls", "self_s"),
    "bridge.rate_defect": ("self_s",),
    "bridge.law_distance": ("self_s",),
    "bridge.euler_gap": ("self_s",),
}

# span -> metric counting the bytes of the arrays its calls return: the
# dense kernel (8 * 4^n per build) and the uniforms (8 * rows * n per chunk)
BYTE_SPANS = {"exact.transition_matrix": "exact.kernel_bytes",
              "streams.chunk_values": "streams.bytes"}


def span_name(entry: str) -> str:
    module, *_, attr = entry.split(".")
    return f"{module}.{attr}"


class Tracer:
    """Collects spans from wrapped callables, across threads.

    A span opened on a thread with no open span of its own (a worker of a
    thread pool) takes the innermost open span of the installing thread as
    its parent, which is the call that submitted the work.
    """

    def __init__(self):
        self.names: list[str] = []
        # six int64 fields per span: id, name, start, end, parent, bytes
        self.records = array.array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        count_bytes = name in BYTE_SPANS
        records = self.records
        ids = self._ids
        clock = time.perf_counter_ns
        main_stack = self._main_stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                nbytes = int(getattr(result, "nbytes", 0)) if count_bytes else 0
                records.extend((sid, name_id, start, end, parent, nbytes))

        return traced

    def install(self, package: str = "occupancy"):
        """Wrap every entry of FUNCTIONS; returns the package's cli module.

        A function imported by name into another module of the package (as
        `cli` imports `check_assumptions`) is rebound there too, so calls
        through either name are traced.
        """
        cli = importlib.import_module(f"{package}.cli")
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith(package + ".")]
        for entry in FUNCTIONS:
            short, *owner, attr = entry.split(".")
            target = importlib.import_module(f"{package}.{short}")
            if owner:
                target = getattr(target, owner[0])
            func = vars(target)[attr]
            wrapped = self.wrap(func, span_name(entry))
            setattr(target, attr, wrapped)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, name, wrapped)
        return cli

    def save(self, path: str):
        rows = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 6)
        rows = rows[np.argsort(rows[:, 0])]
        np.savez(path, spans=rows, names=np.array(self.names))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per-span duration minus the part of it that child spans cover.

    Children on one thread never overlap; children from worker threads can,
    so coverage is the length of the union of child intervals, clipped to
    the parent.  Rows are (id, name, start, end, parent, bytes), sorted by id.
    """
    ids, parent = spans[:, 0], spans[:, 4]
    start = spans[:, 2] - spans[:, 2].min()
    end = spans[:, 3] - spans[:, 2].min()
    duration = (end - start).astype(float)
    covered = np.zeros(len(spans))
    child = np.flatnonzero(parent >= 0)
    if child.size:
        prow = np.searchsorted(ids, parent[child])
        cs = np.maximum(start[child], start[prow])
        ce = np.minimum(end[child], end[prow])
        order = np.lexsort((cs, prow))
        prow, cs, ce = prow[order], cs[order], ce[order]
        # running max of child ends within each parent group; the group
        # offset keeps the cumulative max from crossing group boundaries
        offset = prow.astype(np.int64) * (int(end.max()) + 1)
        run_end = np.maximum.accumulate(offset + ce) - offset
        prev_end = np.empty_like(run_end)
        prev_end[1:] = run_end[:-1]
        prev_end[np.r_[True, prow[1:] != prow[:-1]]] = np.iinfo(np.int64).min
        gain = np.maximum(0, ce - np.maximum(cs, prev_end))
        covered = np.bincount(prow, weights=gain.astype(float), minlength=len(spans))
    return np.maximum(duration - covered, 0.0)


def layer_table(path: str) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "self_s", "total_s", "bytes"}} from a spans file."""
    with np.load(path) as data:
        spans, names = data["spans"], [str(v) for v in data["names"]]
    out = {}
    if not len(spans):
        return out
    own = self_times(spans)
    name_ids = spans[:, 1]
    calls = np.bincount(name_ids, minlength=len(names))
    self_ns = np.bincount(name_ids, weights=own, minlength=len(names))
    total_ns = np.bincount(name_ids, weights=(spans[:, 3] - spans[:, 2]).astype(float),
                           minlength=len(names))
    nbytes = np.bincount(name_ids, weights=spans[:, 5].astype(float), minlength=len(names))
    for k, name in enumerate(names):
        if calls[k]:
            out[name] = {"calls": int(calls[k]), "self_s": self_ns[k] * 1e-9,
                         "total_s": total_ns[k] * 1e-9, "bytes": int(nbytes[k])}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <occupancy cli arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(argv[2:])
    finally:
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
