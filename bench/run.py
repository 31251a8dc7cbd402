"""thirdq benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload steady|dynamics|verify --seed N \\
        --seconds S --trace 0|1

Run it from the root of a thirdq checkout; it imports the package from
``src/``.  A run

1. writes one model file per op from the seed, before any timing,
2. warms up with small instances of every command of the workload,
3. calls ``thirdq.cli.main(argv)`` in this process for each op of the fixed
   schedule, cycle by cycle, checks every output and times a reference
   kernel after each op (``REFERENCE_S``),
4. times ``import thirdq.cli`` in fresh interpreters before the first cycle
   and after each cycle (``setup_s``),
5. with ``--trace 1``, repeats the same ops on copies of the model files with
   every layer wrapped in timing spans, and reports per-layer metrics and the
   tracing overhead instead of the end-to-end metrics.

BLAS and OpenMP thread variables are left as found.  Every time in the
end-to-end metrics is scaled to a reference host speed.  Human-readable lines go
to stdout, the full record to ``bench/results/``, and the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, reference_rows
from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# numpy and scipy.linalg, then the package, then the CLI; each step is timed
SETUP_CODE = """\
import time
t = [time.monotonic()]
import numpy, scipy.linalg
t.append(time.monotonic())
import thirdq
t.append(time.monotonic())
import thirdq.cli
t.append(time.monotonic())
print(*t)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# The host's speed drifts: a thread runs at full speed or up to 1.6 times
# slower for seconds to minutes, set by load from outside the process (see
# README.md).  After every op the run times a fixed reference kernel that uses
# no thirdq code, and every time an end-to-end metric is made of is scaled by
# REFERENCE_S over the median kernel time of the run.  REFERENCE_S is the
# kernel's time on a 2-vCPU x86 host in its fast state, so scaled times read
# as wall times there.
REFERENCE_S = 0.060
_REF_ROWS = [[float(i * j % 7) for j in range(40)] for i in range(400)]
_REF_EIG = np.random.default_rng(0).standard_normal((100, 200)).view(complex)
_REF_GEMM = np.random.default_rng(1).standard_normal((256, 512)).view(complex)


def reference_kernel() -> float:
    """Wall seconds of the fixed reference work, in about equal parts the
    kinds of work thirdq's ops do: an interpreted loop that builds nested
    dicts and lists, a dense complex eig, and complex matrix products on the
    BLAS threads."""
    t0 = time.perf_counter()
    for _ in range(2):
        [{str(k): [v, -v] for k, v in enumerate(row) if v >= 0} for row in _REF_ROWS]
    np.linalg.eig(_REF_EIG)
    for _ in range(10):
        _REF_GEMM @ _REF_GEMM
    return time.perf_counter() - t0


def measure_setup() -> dict:
    """Time one fresh interpreter until ``import thirdq.cli`` returns."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    t = [float(x) for x in out.split()]
    return {
        "setup_s": t[3] - t0,
        "import.numpy_scipy_s": t[1] - t[0],
        "import.thirdq_s": t[2] - t[1],
        "import.thirdq_cli_s": t[3] - t[2],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
    }


def write_models(ops, rng, directory: Path, tag: str, copies: int = 1) -> list[list[Path]]:
    """Write one model file per op; ``copies`` identical files of each, so
    that no file is read twice.  Returns the paths per copy."""
    from thirdq.cli import document_to_model
    from thirdq import build_structure, rapidities
    from thirdq.spectral import COND_DEFECTIVE, COND_WARN

    paths = [[] for _ in range(copies)]
    for i, op in enumerate(ops):
        doc = op.make(rng)
        if op.ep3:
            cond = rapidities(build_structure(document_to_model(doc)).X).cond_P
            if not COND_WARN < cond < COND_DEFECTIVE:
                raise RuntimeError(
                    f"{op.name}: cond(P) = {cond:.3e} misses the Schur route"
                )
        text = json.dumps(doc)
        for c in range(copies):
            path = directory / f"{tag}{c}-{i:03d}-{op.name}.json"
            path.write_text(text)
            paths[c].append(path)
    return paths


def run_op(cli, op, model: Path, out: Path) -> dict:
    argv = [op.argv[0], "--model", str(model), *op.argv[1:], "--output", str(out)]
    err = io.StringIO()
    error = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse
            code = e.code
        except Exception as e:  # a crash is a failed op, not a failed run
            code, error = None, repr(e)
        seconds = time.perf_counter() - t0
    data = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()}"
    if error is None:
        error = check(op, data.decode())
    return {
        "op": op.name, "n": op.n, "seconds": seconds, "exit": code,
        "ok": error is None, "error": error,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def run_phase(cli, ops, paths, workdir: Path, tracer=None) -> list[dict]:
    records = []
    for i, (op, path) in enumerate(zip(ops, paths)):
        gc.collect()
        if tracer is not None:
            tracer.op = i
        records.append(run_op(cli, op, path, workdir / "out"))
        if tracer is not None:
            tracer.op = None
        records[-1]["reference_s"] = reference_kernel()
    return records


def speed_factor(records: list[dict]) -> float:
    """REFERENCE_S over the median reference kernel time of a phase."""
    return REFERENCE_S / statistics.median(r["reference_s"] for r in records)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the op-time tail by nearest rank.

    This is the highest percentile with at least ten samples beyond it, but
    never below p75: with fewer than 40 ops even p75 has fewer than ten
    samples beyond it, and the count says so."""
    s = sorted(values)
    rank = max(math.ceil(0.75 * len(s)), len(s) - 10)
    return 100.0 * rank / len(s), s[rank - 1], len(s) - rank


def end_to_end(records: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of one phase, with every time scaled to the
    reference speed.  A failed op counts as infinitely slow for the latency
    metrics and not at all for throughput."""
    speed = speed_factor(records)
    times = [r["seconds"] * speed if r["ok"] else math.inf for r in records]
    ok = sum(r["ok"] for r in records)
    q, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup) * speed, "s"),
        "ops_per_s": (ok / (sum(r["seconds"] for r in records) * speed), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "failed_ratio": (len(records) - ok) / len(records),
        "op_tail_percentile": q,
        "op_tail_samples_beyond": beyond,
        "speed_factor": speed,
        "wall_setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_ops_per_s": ok / sum(r["seconds"] for r in records),
        "wall_op_p50_s": statistics.median(r["seconds"] for r in records),
        "ops": len(records),
    }
    return metrics, extra


def outputs_digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r['op']} {r['sha256']}\n".encode())
    return h.hexdigest()


def _show(name: str, value, unit: str) -> None:
    shown = value if unit == "count" else f"{value:.6g}"
    print(f"  {name:44s} {shown} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thirdq" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC / 'thirdq'} not found; run from a thirdq checkout\n")
        return 2

    clock = [("start", time.monotonic())]
    sys.path.insert(0, str(SRC))
    import thirdq.cli as cli
    clock.append(("import", time.monotonic()))

    workload = WORKLOADS[args.workload]
    ops = list(workload.cycle) * workload.cycles(args.seconds)
    env = environment()
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        paths = write_models(ops, rng, workdir, "op", copies=1 + args.trace)
        warm = write_models(workload.warmup, rng, workdir, "warmup")[0]
        probe = write_models(workload.probe, rng, workdir, "probe")[0]
        clock.append(("models", time.monotonic()))

        run_phase(cli, workload.warmup, warm, workdir)
        clock.append(("warmup", time.monotonic()))
        # setup samples between cycles see the host at the speeds the ops saw
        setup = [measure_setup()]
        records, size = [], len(workload.cycle)
        for c in range(0, len(ops), size):
            records += run_phase(cli, ops[c:c + size], paths[0][c:c + size], workdir)
            setup.append(measure_setup())
        clock.append(("timed", time.monotonic()))
        e2e, extra = end_to_end(records, setup)
        probes = run_phase(cli, workload.probe, probe, workdir)
        clock.append(("probe", time.monotonic()))
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "setup_samples": setup,
            "end_to_end": {k: v[0] for k, v in e2e.items()} | extra,
            "outputs_sha256": outputs_digest(records),
            "known_defect_probes": probes, "ops": records,
            # wall seconds of each step of the run, ending at the step named
            "phase_seconds": {b[0]: b[1] - a[1] for a, b in zip(clock, clock[1:])},
        }
        reported, all_records = e2e, list(records)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            traced = run_phase(cli, ops, paths[1], workdir, tracer)
            all_records += traced
            reported, seconds = layer_metrics(
                tracer.spans, ops, sum(r["seconds"] for r in traced), env["cpus_usable"]
            )
            for name in ("import.numpy_scipy_s", "import.thirdq_s", "import.thirdq_cli_s"):
                reported[name] = (statistics.median(s[name] for s in setup), "s")
            untraced = sum(r["seconds"] for r in records) * speed_factor(records)
            reported["trace.overhead_ratio"] = (
                sum(r["seconds"] for r in traced) * speed_factor(traced) / untraced - 1.0, "1"
            )
            result |= {
                "per_layer": {k: v[0] for k, v in reported.items()},
                "layer_seconds": seconds,
                "reference": reference_rows(tracer.spans, ops),
                "traced_ops": traced,
                "spans": [vars(s) | {"op_class": None if s.op is None else ops[s.op].name}
                          for s in tracer.spans],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in all_records if not r["ok"]]
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(ops)}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in e2e.items():
        _show(name, value, unit)
    _show("failed_ratio", extra["failed_ratio"], "1")
    print(f"  times scaled by {extra['speed_factor']:.4g} to the reference speed; as measured: "
          f"setup_s {extra['wall_setup_s']:.4g}, ops_per_s {extra['wall_ops_per_s']:.4g}, "
          f"op_p50_s {extra['wall_op_p50_s']:.4g}")
    print(f"  op_tail_s is p{extra['op_tail_percentile']:.4g} of {extra['ops']} ops, "
          f"{extra['op_tail_samples_beyond']} beyond it")
    if args.trace:
        for name, (value, unit) in reported.items():
            _show(name, value, unit)
        for name, value in seconds.items():
            if name not in reported:
                _show(name, value, "s")
        for row in result["reference"]:
            print(f"  reference {row['layer']} [{row['op']}, {row['size']}]: "
                  f"{row['median_s']:.4g} s median over {row['ops']} ops, "
                  f"roadmap {row['roadmap_s']} s")
    for p in probes:
        print(f"  known defect probe {p['op']}: exit {p['exit']} ({p['error']})")
    for r in failed:
        print(f"  FAILED {r['op']}: {r['error']}")
    print(f"  outputs sha256 {result['outputs_sha256']}")
    print(f"  record written to {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
