"""Span tracing of thirdq's layers from outside the package.

``Tracer.install`` wraps every public function of each thirdq module, and
every public method of the classes those modules define, with a timing
wrapper.  It rebinds each function under every name it has in the package:
``thirdq.ness.rapidities`` and ``thirdq.cli.rapidities`` are the same object
and both get the wrapper, so a call is seen whichever module makes it.  The
CLI's ``cmd_*`` handlers are left alone: they belong to ``cli.main``'s own
layer (argument parsing and report encoding).

``cli.sweep`` evaluates grid points on a thread pool.  The tracer replaces the
pool class the CLI uses with a subclass that records one span per grid point
and one for the pool's lifetime, so that points are counted and their busy
time is attributed to the op that started them.

Spans are kept in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

MODULES = ("model", "structure", "spectral", "lyapunov", "ness", "oracle", "cli")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    size: int | None = None  # result size where the layer has one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one op at a time is current (a single closed-loop client)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, sizer=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the op's innermost span
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            sid = next(self._ids)
            op = self.op
            stack.append(sid)
            result, returned = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                size = sizer(args, result) if returned and sizer is not None else None
                self.spans.append(
                    Span(sid, name, start, end, parent, op, threading.get_ident(), size)
                )

        return wrapper

    def install(self) -> None:
        importlib.import_module("thirdq.cli")
        package_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "thirdq" or name.startswith("thirdq."))
        ]
        for short in MODULES:
            module = sys.modules[f"thirdq.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if short == "cli" and attr.startswith("cmd_"):
                        continue
                    wrapped = self.span(f"{short}.{attr}", obj, _SIZERS.get(f"{short}.{attr}"))
                    for m in package_modules:
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, name, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            setattr(obj, meth, self.span(name, fn, _SIZERS.get(name)))
        sys.modules["thirdq.cli"].ThreadPoolExecutor = self._traced_pool()

    def _traced_pool(self):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def __enter__(self):
                stack = tracer._stack()
                self._bench_span = (next(tracer._ids), time.perf_counter(), tracer.op)
                self._bench_parent = stack[-1] if stack else None
                stack.append(self._bench_span[0])
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    sid, start, op = self._bench_span
                    tracer._stack().pop()
                    tracer.spans.append(
                        Span(sid, "cli.sweep.pool", start, time.perf_counter(),
                             self._bench_parent, op, threading.get_ident())
                    )

            def map(self, fn, *iterables, **kwargs):
                return super().map(tracer.span("cli.sweep.point", fn), *iterables, **kwargs)

        return TracedPool


def _len_result(args, result):
    return len(result)


def _generator_dim(args, result):
    return int(result.dim) ** 2


def _eig_dim(args, result):
    return int(args[0].dim) ** 2


_SIZERS = {
    "spectral.liouville_spectrum": _len_result,
    "oracle.build_liouvillean_matrix": _generator_dim,
    "oracle.DenseLiouvillean.eig": _eig_dim,
}


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    cursor = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


# Every workload calls the shared layers; their busy time enters the result
# line in seconds.  Some workload never calls a specific layer, so its time
# enters as a share of op wall time (unit 1) and no time metric reads exactly
# 0; the seconds themselves are printed and written to the results file.
SHARED_LAYERS = (
    "cli.load_model_document",
    "cli.document_to_model",
    "model.validate_model",
    "structure.build_structure",
    "spectral.rapidities",
    "lyapunov.solve",
)
SPECIFIC_LAYERS = (
    "spectral.liouville_spectrum",
    "lyapunov.solve_schur",
    "ness.covariance_trajectory",
    "ness.mean_trajectory",
    "ness.physical_correlators",
    "oracle.build_liouvillean_matrix",
    "oracle.oracle_steady_state",
    "oracle.DenseLiouvillean.eig",
    "oracle.oracle_spectrum",
    "oracle.oracle_evolve",
)
TRAJECTORIES = ("ness.covariance_trajectory", "ness.mean_trajectory")


def layer_metrics(spans: list[Span], ops: list, op_seconds: float, nproc: int):
    """Per-layer metrics of one traced phase.

    ``ops`` lists the op class of each op id; ``op_seconds`` is the summed
    wall time of those ops.  Returns ``(metrics, seconds)``: ``metrics``
    maps name -> (value, unit) for the result line, ``seconds`` holds the
    busy and self times of every layer, including those reported as shares.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(self_time(s, children.get(s.id, [])) for s in by_name.get(name, ()))

    seconds = {f"{name}.busy_s": busy(name) for name in SHARED_LAYERS + SPECIFIC_LAYERS}
    seconds["cli.main.self_s"] = self_s("cli.main")
    seconds["cli.run_verification.self_s"] = self_s("cli.run_verification")
    seconds["cli.sweep.point_busy_s"] = busy("cli.sweep.point")

    m = {f"{name}.busy_s": (seconds[f"{name}.busy_s"], "s") for name in SHARED_LAYERS}
    m["cli.main.self_s"] = (seconds["cli.main.self_s"], "s")
    for name in SPECIFIC_LAYERS:
        m[f"{name}.busy_share"] = (seconds[f"{name}.busy_s"] / op_seconds, "1")
    m["cli.run_verification.self_share"] = (seconds["cli.run_verification.self_s"] / op_seconds, "1")
    m["cli.sweep.point_busy_share"] = (seconds["cli.sweep.point_busy_s"] / op_seconds, "1")

    m["cli.load_model_document.calls"] = (calls("cli.load_model_document"), "count")
    m["spectral.rapidities.calls"] = (calls("spectral.rapidities"), "count")
    m["spectral.rapidities.calls_per_op"] = (calls("spectral.rapidities") / len(ops), "1")
    m["spectral.liouville_spectrum.modes"] = (
        sum(s.size or 0 for s in by_name.get("spectral.liouville_spectrum", ())), "count"
    )
    solves, schur = calls("lyapunov.solve"), calls("lyapunov.solve_schur")
    m["lyapunov.solve_eigenbasis.calls"] = (calls("lyapunov.solve_eigenbasis"), "count")
    m["lyapunov.solve_schur.calls"] = (schur, "count")
    m["lyapunov.schur_fallback_ratio"] = (schur / solves if solves else 0.0, "1")
    m["ness.steady_mean.calls"] = (calls("ness.steady_mean"), "count")
    traj = [s for name in TRAJECTORIES for s in by_name.get(name, ())]
    m["ness.trajectory_closed_form"] = (sum(ops[s.op].stable for s in traj), "count")
    m["ness.trajectory_ode"] = (sum(not ops[s.op].stable for s in traj), "count")

    eig = by_name.get("oracle.DenseLiouvillean.eig", [])
    m["oracle.DenseLiouvillean.eig.calls"] = (len(eig), "count")
    dims = [s.size for s in by_name.get("oracle.build_liouvillean_matrix", ())]
    m["oracle.generator_dim"] = (max(dims, default=0), "count")
    # one generator per op; its dense matrix exists once eig has run on it
    dense_dim = {s.op: s.size for s in eig}
    m["oracle.dense_entries_computed"] = (sum(d**2 for d in dense_dim.values()), "count")

    pool = sum(s.duration for s in by_name.get("cli.sweep.pool", ()))
    m["cli.sweep.points"] = (calls("cli.sweep.point"), "count")
    m["cli.sweep.parallel_efficiency"] = (
        seconds["cli.sweep.point_busy_s"] / (pool * nproc) if pool else 0.0, "1"
    )
    return m, seconds


# The reference table of ROADMAP.md: (layer span, op class, size, roadmap
# seconds).  The n=50 Schur time is from ROADMAP's open items.
REFERENCE = (
    ("spectral.rapidities", "ness.chain100", "n=100", "0.067"),
    ("lyapunov.solve_eigenbasis", "ness.chain100", "n=100", "0.012"),
    ("lyapunov.solve_schur", "ness.ep3-51", "n=51 (EP3)", "0.052 at n=50, 0.261 at n=100"),
    ("ness.covariance_trajectory", "dynamics.chain50", "n=50, 101 steps", "1.6-2.3"),
    ("oracle.DenseLiouvillean.eig", "verify.osc-cutoff30", "dim 900", "2.0"),
    ("oracle.DenseLiouvillean.eig", "verify.two-mode-cutoff6", "dim 1296", "4.9"),
)


def reference_rows(spans: list[Span], ops: list) -> list[dict]:
    """Median time per op of each reference layer, for the op classes this
    workload runs.  Per op the span durations are summed, so a cached
    second call of ``eig`` adds almost nothing."""
    rows = []
    for layer, op_class, size, roadmap in REFERENCE:
        per_op: dict[int, float] = {}
        for s in spans:
            if s.name == layer and ops[s.op].name == op_class:
                per_op[s.op] = per_op.get(s.op, 0.0) + s.duration
        if per_op:
            rows.append({
                "layer": layer, "op": op_class, "size": size, "roadmap_s": roadmap,
                "median_s": statistics.median(per_op.values()), "ops": len(per_op),
            })
    return rows
