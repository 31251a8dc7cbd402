"""Command line front end and file formats.

Model files are JSON documents with complex scalars encoded as two-element
``[re, im]`` arrays (see ``schemas/model.schema.json``).  Reports are JSON
with a fixed key order; bulk numeric output (spectrum, dynamics, sweep) is
CSV with a header row, comma separator and LF line endings.  Identical
invocations produce byte-identical output.

Exit codes:

    0  success (an Unstable verdict from analyze/sweep is a result)
    2  unreadable/schema-invalid input, bad sweep path
    3  numerical failure (e.g. X not diagonalizable)
    4  stable spectrum required (ness/spectrum on Marginal or Unstable)
    5  enumeration or oracle dimension caps, insufficient truncation
    6  verification failure
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import scipy.optimize
import jsonschema

from . import __version__
from .errors import (
    DimensionMismatch,
    NotStable,
    SchemaError,
    ThirdQError,
)
from .model import DEFAULT_TOL_INPUT, BosonicModel, LindbladChannel, validate_model
from .structure import build_structure
from .spectral import (
    DEFAULT_TOL_MARGINAL,
    Stability,
    liouville_spectrum,
    rapidities,
    spectral_gap,
)
from .lyapunov import RESIDUAL_TOL, solve
from .ness import (
    covariance_trajectory,
    mean_source,
    mean_trajectory,
    physical_correlators,
    steady_mean,
    wick_moment,
)
from .oracle import (
    build_liouvillean_matrix,
    default_cutoff,
    memcap_from_env,
    oracle_spectrum,
    oracle_steady_state,
    oracle_evolve,
    vacuum_state,
)

TRACE_PRESERVATION_TOL = 1e-10


# ---------------------------------------------------------------------------
# complex / float codecs


def _pair(z) -> list[float]:
    z = complex(z)
    # + 0.0 folds negative zero into plain zero
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _pair_vector(v) -> list[list[float]]:
    return [_pair(z) for z in np.asarray(v)]


def _pair_matrix(A) -> list[list[list[float]]]:
    return [_pair_vector(row) for row in np.asarray(A)]


def _from_pair(obj, where: str) -> complex:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise SchemaError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _from_pair_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array of [re, im] pairs")
    return np.array([_from_pair(x, where) for x in obj], dtype=complex)


def _from_pair_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nested array of [re, im] pairs")
    rows = [_from_pair_vector(row, where) for row in obj]
    width = {row.size for row in rows}
    if len(width) != 1:
        raise DimensionMismatch(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _fmt(x) -> str:
    # shortest round-trip decimal form; deterministic for a given value
    return repr(float(x) + 0.0)


# ---------------------------------------------------------------------------
# model files


def _load_schema(name: str) -> dict:
    with resources.files("thirdq.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def load_model_document(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read model file {path}: {e}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    try:
        jsonschema.validate(doc, _load_schema("model.schema.json"))
    except jsonschema.ValidationError as e:
        path_str = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise SchemaError(f"model file invalid at {path_str}: {e.message}") from None
    return doc


def document_to_model(doc: dict, tol_input: float = DEFAULT_TOL_INPUT) -> BosonicModel:
    n = int(doc["n"])
    H = _from_pair_matrix(doc["H"], "H")
    K = _from_pair_matrix(doc["K"], "K") if "K" in doc else None
    channels = []
    for i, ch in enumerate(doc.get("channels", [])):
        channels.append(
            LindbladChannel(
                l=_from_pair_vector(ch["l"], f"channels[{i}].l"),
                k=_from_pair_vector(ch["k"], f"channels[{i}].k"),
                offset=_from_pair(ch["offset"], f"channels[{i}].offset")
                if "offset" in ch
                else 0j,
            )
        )
    forces = _from_pair_vector(doc["forces"], "forces") if "forces" in doc else None
    return validate_model(n, H, K, channels, forces, tol_input=tol_input)


def model_to_document(model: BosonicModel) -> dict:
    doc = {"n": model.n, "H": _pair_matrix(model.H), "K": _pair_matrix(model.K)}
    doc["channels"] = []
    for ch in model.channels:
        entry = {"l": _pair_vector(ch.l), "k": _pair_vector(ch.k)}
        if ch.offset != 0:
            entry["offset"] = _pair(ch.offset)
        doc["channels"].append(entry)
    if model.forces is not None:
        doc["forces"] = _pair_vector(model.forces)
    return doc


def _model_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


def _report(command: str, model_hash: str, tolerances: dict, results: dict) -> str:
    doc = {
        "command": command,
        "model_hash": model_hash,
        "tool_version": __version__,
        "tolerances": tolerances,
        "results": results,
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _analysis_results(model: BosonicModel, tol_marginal: float) -> dict:
    struct = build_structure(model)
    spectrum = rapidities(struct.X, tol_marginal)
    stable = spectrum.stability is Stability.STABLE
    trace_resid = abs(np.trace(struct.X) - struct.S0) / max(1.0, abs(struct.S0))
    return {
        "n": model.n,
        "rapidities": _pair_vector(spectrum.beta),
        "stability": spectrum.stability.value,
        "spectral_gap": float(2.0 * spectrum.beta.real.min()) if stable else None,
        "cond_P": float(spectrum.cond_P),
        "S0": _pair(struct.S0),
        "trace_identity_residual": float(trace_resid),
    }


def cmd_analyze(args) -> int:
    model = document_to_model(load_model_document(args.model), tol_input=args.tol)
    results = _analysis_results(model, args.tol_marginal)
    text = _report(
        "analyze",
        _model_hash(args.model),
        {"tol_input": args.tol, "tol_marginal": args.tol_marginal},
        results,
    )
    _emit(text, args.output)
    return 0


def cmd_ness(args) -> int:
    model = document_to_model(load_model_document(args.model), tol_input=args.tol)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    if spectrum.stability is Stability.MARGINAL:
        raise NotStable("marginal spectrum: Lyapunov solution not unique")
    if spectrum.stability is Stability.UNSTABLE:
        raise NotStable("unstable spectrum: no steady state exists")
    sol = solve(struct.X, struct.Y, spectrum, tol_marginal=args.tol_marginal)
    corr = physical_correlators(sol.Z, model.n)
    results = {
        "Z": _pair_matrix(sol.Z),
        "pair_aa": _pair_matrix(corr.pair_aa),
        "pair_adad": _pair_matrix(corr.pair_adad),
        "normal_ad_a": _pair_matrix(corr.normal_ad_a),
        "occupations": [float(x) for x in corr.occupations],
        "residual": float(sol.residual),
        "method": sol.method.value,
    }
    text = _report(
        "ness",
        _model_hash(args.model),
        {
            "tol_input": args.tol,
            "tol_marginal": args.tol_marginal,
            "residual_tol": RESIDUAL_TOL,
        },
        results,
    )
    _emit(text, args.output)
    return 0


def cmd_spectrum(args) -> int:
    model = document_to_model(load_model_document(args.model), tol_input=args.tol)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    modes = liouville_spectrum(
        spectrum.beta, args.max_excitation, tol_marginal=args.tol_marginal
    )
    two_n = 2 * model.n
    header = [f"m_{i + 1}" for i in range(two_n)] + ["re_lambda", "im_lambda"]
    rows = [
        [str(mi) for mi in mode.m] + [_fmt(mode.lam.real), _fmt(mode.lam.imag)]
        for mode in modes
    ]
    _emit(_csv(header, rows), args.output)
    return 0


def _load_initial(path: str, two_n: int):
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read initial-state file {path}: {e}") from None
    if not isinstance(doc, dict) or "C0" not in doc:
        raise SchemaError("initial-state file must be an object with a C0 matrix")
    C0 = _from_pair_matrix(doc["C0"], "C0")
    if C0.shape != (two_n, two_n):
        raise DimensionMismatch(f"C0 must be {two_n}x{two_n}, got {C0.shape}")
    m0 = (
        _from_pair_vector(doc["m0"], "m0")
        if "m0" in doc
        else np.zeros(two_n, dtype=complex)
    )
    if m0.shape != (two_n,):
        raise DimensionMismatch(f"m0 must have length {two_n}, got {m0.shape}")
    return C0, m0


def cmd_dynamics(args) -> int:
    model = document_to_model(load_model_document(args.model), tol_input=args.tol)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    n, two_n = model.n, 2 * model.n
    if args.initial == "vacuum":
        C0 = np.zeros((two_n, two_n), dtype=complex)
        m0 = np.zeros(two_n, dtype=complex)
    else:
        C0, m0 = _load_initial(args.initial, two_n)

    if args.t0 < 0:
        raise SchemaError("--t0 must be >= 0")
    if args.steps < 1:
        raise SchemaError("--steps must be >= 1")
    if args.t1 < args.t0:
        raise SchemaError("--t1 must be >= --t0")
    if args.t1 == args.t0:
        times = np.array([args.t0])
    else:
        times = np.linspace(args.t0, args.t1, args.steps)

    if spectrum.stability is Stability.UNSTABLE:
        sys.stderr.write(
            "warning: unstable rapidity spectrum; moments amplify without bound\n"
        )

    traj = covariance_trajectory(
        struct.X, struct.Y, C0, times, tol_marginal=args.tol_marginal
    )
    with_means = model.has_linear_terms or bool(np.any(m0 != 0))
    means = (
        mean_trajectory(
            struct.X, mean_source(model), m0, times, tol_marginal=args.tol_marginal
        )
        if with_means
        else None
    )

    header = ["t"] + [f"occ_{j + 1}" for j in range(n)]
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    for j, k in pairs:
        header += [f"re_aa_{j + 1}_{k + 1}", f"im_aa_{j + 1}_{k + 1}"]
    if means is not None:
        for j in range(n):
            header += [f"re_mean_a_{j + 1}", f"im_mean_a_{j + 1}"]
    rows = []
    for i, t in enumerate(times):
        C = traj.C[i]
        row = [_fmt(t)]
        row += [_fmt(C[j, n + j].real) for j in range(n)]
        for j, k in pairs:
            row += [_fmt(C[j, k].real), _fmt(C[j, k].imag)]
        if means is not None:
            for j in range(n):
                row += [_fmt(means[i, j].real), _fmt(means[i, j].imag)]
        rows.append(row)
    _emit(_csv(header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification


def run_verification(
    model: BosonicModel,
    cutoff: int | None = None,
    memcap: int | None = None,
    tol_moments: float = 1e-6,
    tol_wick: float | None = None,
    tol_spectrum: float | None = None,
    tol_trajectory: float | None = None,
    trunc_tol: float | None = None,
    tol_marginal: float = DEFAULT_TOL_MARGINAL,
) -> dict:
    """Cross-validate the analytic pipeline against the brute-force oracle.

    Returns a JSON-ready dict with side-by-side deltas and a ``pass`` flag.
    Gate defaults derive from ``tol_moments``: wick and trajectory at 10x,
    spectrum at 100x, truncation at max(1e-8, tol_moments).
    """
    tol_wick = 10 * tol_moments if tol_wick is None else tol_wick
    tol_spectrum = 100 * tol_moments if tol_spectrum is None else tol_spectrum
    tol_trajectory = 10 * tol_moments if tol_trajectory is None else tol_trajectory
    trunc_tol = max(1e-8, tol_moments) if trunc_tol is None else trunc_tol

    n = model.n
    struct = build_structure(model)
    spectrum = rapidities(struct.X, tol_marginal)
    if spectrum.stability is not Stability.STABLE:
        raise NotStable(
            f"verification requires a Stable model, got {spectrum.stability.value}"
        )
    sol = solve(struct.X, struct.Y, spectrum, tol_marginal=tol_marginal)
    corr = physical_correlators(sol.Z, n)
    gap = spectral_gap(spectrum.beta, tol_marginal)

    linear = model.has_linear_terms
    ma = (
        steady_mean(struct.X, mean_source(model), tol_marginal)[:n]
        if linear
        else np.zeros(n, dtype=complex)
    )
    if cutoff is None:
        cutoff = default_cutoff(
            corr.occupations, np.diag(corr.pair_aa), np.abs(ma) ** 2, tol_moments
        )
    lio = build_liouvillean_matrix(model, cutoff, memcap=memcap)
    trace_resid = lio.trace_preservation_residual()
    ss = oracle_steady_state(lio, top_level_tol=trunc_tol)

    if linear:
        pair_aa_ref = corr.pair_aa + np.outer(ma, ma)
        pair_adad_ref = corr.pair_adad + np.outer(ma.conj(), ma.conj())
        normal_ad_a_ref = corr.normal_ad_a + np.outer(ma, ma.conj())
    else:
        pair_aa_ref = corr.pair_aa
        pair_adad_ref = corr.pair_adad
        normal_ad_a_ref = corr.normal_ad_a

    moment_max = max(
        np.abs(pair_aa_ref - ss.pair_aa).max(),
        np.abs(pair_adad_ref - ss.pair_adad).max(),
        np.abs(normal_ad_a_ref - ss.normal_ad_a).max(),
        np.abs(np.real(np.diag(normal_ad_a_ref)) - ss.occupations).max(),
    )

    if linear:
        wick_max = None
    else:
        wick_analytic = np.array(
            [wick_moment(sol.Z, (n + j, n + j, j, j)) for j in range(n)]
        )
        wick_max = float(np.abs(wick_analytic - ss.wick4).max())

    max_exc = 2 if n == 1 else 1
    modes = liouville_spectrum(spectrum.beta, max_exc, tol_marginal=tol_marginal)
    analytic_vals = np.array([m.lam for m in modes])
    oracle_vals = oracle_spectrum(lio, analytic_vals.size)
    # optimal matching avoids ordering artifacts among near-ties
    cost = np.abs(analytic_vals[:, None] - oracle_vals[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    spectrum_max = float(cost[rows, cols].max())

    t_end = min(10.0, 6.0 / gap)
    times = np.linspace(0.0, t_end, 21)
    two_n = 2 * n
    traj = covariance_trajectory(
        struct.X, struct.Y, np.zeros((two_n, two_n)), times, tol_marginal=tol_marginal
    )
    otraj = oracle_evolve(lio, vacuum_state(lio), times)
    if linear:
        means = mean_trajectory(
            struct.X,
            mean_source(model),
            np.zeros(two_n, dtype=complex),
            times,
            tol_marginal=tol_marginal,
        )
        cov_ref = traj.C + np.einsum("ti,tj->tij", means, means)
        mean_max = float(np.abs(means - otraj.means).max())
    else:
        cov_ref = traj.C
        mean_max = None
    trajectory_max = float(np.abs(cov_ref - otraj.cov).max())

    gates = [
        ("moments", float(moment_max), tol_moments),
        ("spectrum", spectrum_max, tol_spectrum),
        ("trajectory", trajectory_max, tol_trajectory),
        ("trace_preservation", float(trace_resid), TRACE_PRESERVATION_TOL),
    ]
    if wick_max is not None:
        gates.append(("wick", wick_max, tol_wick))
    if mean_max is not None:
        gates.append(("means", mean_max, tol_trajectory))
    failing = [(name, val / tol) for name, val, tol in gates if val > tol]
    failing.sort(key=lambda item: -item[1])
    ok = not failing

    return {
        "pass": ok,
        "cutoff": int(cutoff),
        "moment_max_delta": float(moment_max),
        "wick_max_delta": wick_max,
        "spectrum_max_delta": spectrum_max,
        "trajectory_max_delta": trajectory_max,
        "mean_max_delta": mean_max,
        "truncation_top_population": float(ss.top_populations.max()),
        "trace_preservation_residual": float(trace_resid),
        "lyapunov_residual": float(sol.residual),
        "worst": failing[0][0] if failing else None,
    }


def cmd_verify(args) -> int:
    model = document_to_model(load_model_document(args.model), tol_input=args.tol)
    results = run_verification(
        model,
        cutoff=args.cutoff,
        memcap=memcap_from_env(),
        tol_moments=args.tol_moments,
        tol_wick=args.tol_wick,
        tol_spectrum=args.tol_spectrum,
        tol_trajectory=args.tol_trajectory,
        trunc_tol=args.trunc_tol,
        tol_marginal=args.tol_marginal,
    )
    tolerances = {
        "tol_input": args.tol,
        "tol_marginal": args.tol_marginal,
        "tol_moments": args.tol_moments,
        "tol_wick": args.tol_wick
        if args.tol_wick is not None
        else 10 * args.tol_moments,
        "tol_spectrum": args.tol_spectrum
        if args.tol_spectrum is not None
        else 100 * args.tol_moments,
        "tol_trajectory": args.tol_trajectory
        if args.tol_trajectory is not None
        else 10 * args.tol_moments,
        "trunc_tol": args.trunc_tol
        if args.trunc_tol is not None
        else max(1e-8, args.tol_moments),
    }
    text = _report("verify", _model_hash(args.model), tolerances, results)
    _emit(text, args.output)
    if not results["pass"]:
        sys.stderr.write(f"verification failed: worst gate {results['worst']}\n")
        return 6
    return 0


# ---------------------------------------------------------------------------
# parameter sweeps


def _resolve_path(doc, path: str):
    tokens = path.split(".")
    node = doc
    for i, tok in enumerate(tokens[:-1]):
        if isinstance(node, list):
            try:
                node = node[int(tok)]
            except (ValueError, IndexError):
                raise SchemaError(f"bad sweep path segment {tok!r} in {path!r}") from None
        elif isinstance(node, dict):
            if tok not in node:
                raise SchemaError(f"bad sweep path segment {tok!r} in {path!r}")
            node = node[tok]
        else:
            raise SchemaError(f"sweep path {path!r} descends into a scalar")
    leaf = tokens[-1]
    if isinstance(node, list):
        try:
            idx = int(leaf)
            current = node[idx]
        except (ValueError, IndexError):
            raise SchemaError(f"bad sweep path segment {leaf!r} in {path!r}") from None
        key = idx
    elif isinstance(node, dict):
        if leaf not in node:
            raise SchemaError(f"bad sweep path segment {leaf!r} in {path!r}")
        current = node[leaf]
        key = leaf
    else:
        raise SchemaError(f"sweep path {path!r} descends into a scalar")
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise SchemaError(f"sweep path {path!r} must address one real scalar")
    return node, key


def cmd_sweep(args) -> int:
    doc = load_model_document(args.model)
    _resolve_path(doc, args.param)  # fail fast on a bad path
    n = int(doc["n"])
    if args.steps < 1:
        raise SchemaError("--steps must be >= 1")
    if args.steps == 1:
        grid = np.array([args.start])
    else:
        grid = np.linspace(args.start, args.stop, args.steps)

    def eval_point(value: float) -> list[str]:
        local = copy.deepcopy(doc)
        node, key = _resolve_path(local, args.param)
        node[key] = float(value)
        model = document_to_model(local, tol_input=args.tol)
        struct = build_structure(model)
        spectrum = rapidities(struct.X, args.tol_marginal)
        stable = spectrum.stability is Stability.STABLE
        row = [
            _fmt(value),
            _fmt(spectrum.beta.real.min()),
            spectrum.stability.value,
        ]
        if stable:
            sol = solve(struct.X, struct.Y, spectrum, tol_marginal=args.tol_marginal)
            corr = physical_correlators(sol.Z, model.n)
            row.append(_fmt(2.0 * spectrum.beta.real.min()))
            row.extend(_fmt(x) for x in corr.occupations)
        else:
            row.append("")
            row.extend("" for _ in range(model.n))
        return row

    header = ["value", "min_re_beta", "stability", "gap"] + [
        f"occ_{j + 1}" for j in range(n)
    ]
    with ThreadPoolExecutor() as pool:
        rows = list(pool.map(eval_point, grid))
    _emit(_csv(header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thirdq",
        description="Spectra, steady states and dynamics of quadratic bosonic "
        "Lindblad systems, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument(
            "--tol",
            type=float,
            default=DEFAULT_TOL_INPUT,
            help="relative tolerance for input symmetry repair",
        )
        p.add_argument(
            "--tol-marginal",
            type=float,
            default=DEFAULT_TOL_MARGINAL,
            help="half-width of the Marginal stability band",
        )
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="rapidities, stability, spectral gap")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ness", help="steady-state correlator and occupations")
    common(p)
    p.set_defaults(func=cmd_ness)

    p = sub.add_parser("spectrum", help="decay-mode spectrum as CSV")
    common(p)
    p.add_argument(
        "--max-excitation",
        "-M",
        type=int,
        required=True,
        help="largest total multi-index excitation to enumerate",
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dynamics", help="transient moment trajectories as CSV")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument(
        "--initial",
        default="vacuum",
        help="'vacuum' or a JSON file with C0 (and optional m0)",
    )
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("verify", help="cross-validate against the brute-force oracle")
    common(p)
    p.add_argument("--cutoff", type=int, default=None, help="Fock levels per mode")
    p.add_argument("--tol-moments", type=float, default=1e-6)
    p.add_argument("--tol-wick", type=float, default=None)
    p.add_argument("--tol-spectrum", type=float, default=None)
    p.add_argument("--tol-trajectory", type=float, default=None)
    p.add_argument("--trunc-tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="scan one model scalar over a grid")
    common(p)
    p.add_argument("--param", required=True, help="dotted path, e.g. channels.1.k.0.0")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--emit", choices=["csv"], default="csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ThirdQError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
