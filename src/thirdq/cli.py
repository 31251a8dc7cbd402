"""Command line front end: parses arguments and dispatches to the library.

The file formats live in :mod:`thirdq.codec`.  Each ``cmd_*`` handler returns
the exit code; a :class:`~thirdq.errors.ThirdQError` exits with its own
``exit_code``.  The README's "Exit codes" table is the contract.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .codec import (
    csv_lines,
    csv_table,
    document_to_model,
    emit,
    fmt,
    index_lines,
    load_initial_state,
    load_model_document,
    pairs,
    report,
    resolve_sweep_path,
)
from .errors import SchemaError, ThirdQError
from .model import DEFAULT_TOL_INPUT, BosonicModel
from .structure import build_structure, realify
from .spectral import (
    DEFAULT_TOL_MARGINAL,
    Stability,
    classify_stability,
    liouville_spectrum,
    rapidities,
    require_diagonalizable,
    spectral_gap,
)
from .lyapunov import RESIDUAL_TOL, solve
from .ness import (
    mean_source,
    moment_trajectory,
    physical_correlators,
    require_state_moments,
)


# ---------------------------------------------------------------------------
# commands


def _load_model(args) -> tuple[BosonicModel, str]:
    doc, model_hash = load_model_document(args.model)
    return document_to_model(doc, tol_input=args.tol), model_hash


def cmd_analyze(args) -> int:
    model, model_hash = _load_model(args)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    require_diagonalizable(spectrum.cond_P)
    stable = spectrum.stability is Stability.STABLE
    trace_resid = abs(np.trace(struct.X) - struct.S0) / max(1.0, abs(struct.S0))
    results = {
        "n": model.n,
        "rapidities": spectrum.beta,
        "stability": spectrum.stability.value,
        "spectral_gap": spectral_gap(spectrum) if stable else None,
        "cond_P": float(spectrum.cond_P),
        "S0": pairs(struct.S0),
        "trace_identity_residual": float(trace_resid),
    }
    text = report(
        "analyze",
        model_hash,
        {"tol_input": args.tol, "tol_marginal": args.tol_marginal},
        results,
    )
    emit(text, args.output)
    return 0


def cmd_ness(args) -> int:
    model, model_hash = _load_model(args)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    sol = solve(struct.X, struct.Y, spectrum)
    corr = physical_correlators(sol.Z, model.n)
    results = {
        "Z": sol.Z,
        "pair_aa": corr.pair_aa,
        "pair_adad": corr.pair_adad,
        "normal_ad_a": corr.normal_ad_a,
        "occupations": corr.occupations,
        "residual": float(sol.residual),
        "method": sol.method.value,
    }
    text = report(
        "ness",
        model_hash,
        {
            "tol_input": args.tol,
            "tol_marginal": args.tol_marginal,
            "residual_tol": RESIDUAL_TOL,
        },
        results,
    )
    emit(text, args.output)
    return 0


def cmd_spectrum(args) -> int:
    model, _ = _load_model(args)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    require_diagonalizable(spectrum.cond_P)
    modes = liouville_spectrum(spectrum, args.max_excitation)
    two_n = 2 * model.n
    header = [f"m_{i + 1}" for i in range(two_n)] + ["re_lambda", "im_lambda"]
    lines = (
        index + "," + text
        for index, text in zip(
            index_lines(modes.m, args.max_excitation), csv_lines(pairs(modes.lam))
        )
    )
    emit(csv_table(header, lines), args.output)
    return 0


def cmd_dynamics(args) -> int:
    model, _ = _load_model(args)
    struct = build_structure(model)
    n, two_n = model.n, 2 * model.n
    if args.initial == "vacuum":
        C0 = np.zeros((two_n, two_n), dtype=complex)
        m0 = np.zeros(two_n, dtype=complex)
    else:
        C0, m0 = load_initial_state(args.initial, two_n)
        require_state_moments(C0, m0)

    if args.steps < 1:
        raise SchemaError("--steps must be >= 1")
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise SchemaError("--t0 and --t1 must be finite")
    if args.t1 == args.t0:
        times = np.array([args.t0])
    else:
        times = np.linspace(args.t0, args.t1, args.steps)

    # eigenvalues only: the propagator needs no eigenbasis, so a defective X
    # is no reason to refuse
    stability = classify_stability(
        np.linalg.eigvals(realify(struct.X)), args.tol_marginal
    )
    if stability is Stability.UNSTABLE:
        sys.stderr.write(
            "warning: unstable rapidity spectrum; moments amplify without bound\n"
        )

    g = mean_source(model) if model.has_linear_terms else None
    traj = moment_trajectory(struct.X, struct.Y, g, C0, m0, times)
    with_means = model.has_linear_terms or bool(np.any(m0 != 0))

    rows, cols = np.triu_indices(n)  # the pairs j <= k, row by row
    header = ["t"] + [f"occ_{j + 1}" for j in range(n)]
    for j, k in zip(rows.tolist(), cols.tolist()):
        header += [f"re_aa_{j + 1}_{k + 1}", f"im_aa_{j + 1}_{k + 1}"]
    if with_means:
        for j in range(n):
            header += [f"re_mean_a_{j + 1}", f"im_mean_a_{j + 1}"]
    columns = [
        times[:, None],
        traj.C[:, range(n), range(n, two_n)].real,
        pairs(traj.C[:, rows, cols]).reshape(len(times), -1),
    ]
    if with_means:
        columns.append(pairs(traj.m[:, :n]).reshape(len(times), -1))
    emit(csv_table(header, csv_lines(np.hstack(columns))), args.output)
    return 0


def cmd_verify(args) -> int:
    # only verify runs the oracle, which loads scipy.sparse
    from .oracle import memcap_from_env
    from .verify import run_verification

    model, model_hash = _load_model(args)
    gates, results = run_verification(
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
    tolerances = {"tol_input": args.tol, "tol_marginal": args.tol_marginal, **gates}
    text = report("verify", model_hash, tolerances, results)
    emit(text, args.output)
    if not results["pass"]:
        sys.stderr.write(f"verification failed: worst gate {results['worst']}\n")
        return 6
    return 0


def cmd_sweep(args) -> int:
    doc, _ = load_model_document(args.model)
    node, key = resolve_sweep_path(doc, args.param)
    n = int(doc["n"])
    if args.steps < 1:
        raise SchemaError("--steps must be >= 1")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise SchemaError("--from and --to must be finite")
    grid = np.linspace(args.start, args.stop, args.steps)

    rows = []
    for value in grid:
        # in place: document_to_model copies every value it reads
        node[key] = float(value)
        model = document_to_model(doc, tol_input=args.tol)
        struct = build_structure(model)
        spectrum = rapidities(struct.X, args.tol_marginal)
        require_diagonalizable(spectrum.cond_P)
        stable = spectrum.stability is Stability.STABLE
        row = [
            fmt(value),
            fmt(spectrum.beta.real.min()),
            spectrum.stability.value,
        ]
        if stable:
            sol = solve(struct.X, struct.Y, spectrum)
            corr = physical_correlators(sol.Z, model.n)
            row.append(fmt(spectral_gap(spectrum)))
            row.extend(fmt(x) for x in corr.occupations)
        else:
            row.append("")
            row.extend("" for _ in range(model.n))
        rows.append(",".join(row))

    header = ["value", "min_re_beta", "stability", "gap"] + [
        f"occ_{j + 1}" for j in range(n)
    ]
    emit(csv_table(header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _tolerance(positive: bool):
    """The argparse type of every tolerance flag: finite, and > 0 or >= 0."""

    def tolerance(text: str) -> float:
        value = float(text)  # argparse reports a ValueError as an invalid value
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            bound = "> 0" if positive else ">= 0"
            raise argparse.ArgumentTypeError(f"{text} is not a finite number {bound}")
        return value

    return tolerance


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
            type=_tolerance(positive=False),
            default=DEFAULT_TOL_INPUT,
            help="relative tolerance for input symmetry repair",
        )
        p.add_argument(
            "--tol-marginal",
            type=_tolerance(positive=False),
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
    positive = _tolerance(positive=True)
    p.add_argument("--tol-moments", type=positive, default=1e-6)
    p.add_argument("--tol-wick", type=positive, default=None)
    p.add_argument("--tol-spectrum", type=positive, default=None)
    p.add_argument("--tol-trajectory", type=positive, default=None)
    p.add_argument("--trunc-tol", type=positive, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="scan one model scalar over a grid")
    common(p)
    p.add_argument("--param", required=True, help="dotted path, e.g. channels.1.k.0.0")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
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
