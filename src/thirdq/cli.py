"""Command line front end: parses arguments and dispatches to the library.

The file formats live in :mod:`thirdq.codec`.  Each ``cmd_*`` handler returns
the exit code; a :class:`~thirdq.errors.ThirdQError` exits with its own
``exit_code``.  The README's "Exit codes" table is the contract.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .codec import (
    csv_lines,
    csv_table,
    decode_document,
    decoded_to_model,
    document_to_model,
    emit,
    index_lines,
    load_initial_state,
    load_model_document,
    pairs,
    report,
    require_table_size,
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
    moment_steps,
    physical_correlators,
    require_state_moments,
)
from .oracle import memcap_from_env
from .verify import run_verification


# ---------------------------------------------------------------------------
# commands


def _load_model(args) -> tuple[BosonicModel, str]:
    doc, model_hash = load_model_document(args.model)
    return document_to_model(doc, tol_input=args.tol), model_hash


def _check_grid(start: float, stop: float, steps: int, bounds: str) -> None:
    """Refuse a grid of no steps, or whose ``bounds`` or span are not finite."""
    if steps < 1:
        raise SchemaError("--steps must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SchemaError(f"{bounds} must be finite")
    if not math.isfinite(stop - start):
        raise SchemaError(f"{bounds} span more than the float range")


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
    tolerances = {"tol_input": args.tol, "tol_marginal": args.tol_marginal}
    emit(report("analyze", model_hash, tolerances, results), args.output)
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
    tolerances = {
        "tol_input": args.tol,
        "tol_marginal": args.tol_marginal,
        "residual_tol": RESIDUAL_TOL,
    }
    emit(report("ness", model_hash, tolerances, results), args.output)
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

    with_means = model.has_linear_terms or bool(np.any(m0 != 0))
    rows, cols = np.triu_indices(n)  # the pairs j <= k, row by row
    header = ["t"] + [f"occ_{j + 1}" for j in range(n)]
    for j, k in zip(rows.tolist(), cols.tolist()):
        header += [f"re_aa_{j + 1}_{k + 1}", f"im_aa_{j + 1}_{k + 1}"]
    if with_means:
        for j in range(n):
            header += [f"re_mean_a_{j + 1}", f"im_mean_a_{j + 1}"]

    _check_grid(args.t0, args.t1, args.steps, "--t0 and --t1")
    count = 1 if args.t1 == args.t0 else args.steps
    require_table_size(count, len(header))
    times = np.linspace(args.t0, args.t1, count)

    # eigenvalues only: the propagator needs no eigenbasis, so a defective X
    # is no reason to refuse
    stability = classify_stability(
        np.linalg.eigvals(realify(struct.X)), args.tol_marginal
    )
    if stability is Stability.UNSTABLE:
        sys.stderr.write(
            "warning: unstable rapidity spectrum; moments amplify without bound\n"
        )

    # row i holds the printed moments of step i, so one step of C is alive;
    # a complex array viewed as floats is its [re, im] pairs, and csv_lines
    # folds negative zero
    g = mean_source(model)
    table = np.empty((times.size, len(header)))
    table[:, 0] = times
    occ, aa = slice(1, n + 1), slice(n + 1, n + 1 + 2 * rows.size)
    diagonal = (np.arange(n), np.arange(n, two_n))  # <a†_j a_j>
    for i, (C, m) in enumerate(moment_steps(struct.X, struct.Y, g, C0, m0, times)):
        table[i, occ] = C[diagonal].real
        table[i, aa] = C[rows, cols].view(float)
        if with_means:
            table[i, aa.stop :] = m[:n].view(float)
    emit(csv_table(header, csv_lines(table)), args.output)
    return 0


def cmd_verify(args) -> int:
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
    emit(report("verify", model_hash, tolerances, results), args.output)
    if not results["pass"]:
        sys.stderr.write(f"verification failed: worst gate {results['worst']}\n")
        return 6
    return 0


def cmd_sweep(args) -> int:
    doc, _ = load_model_document(args.model)
    node, key = resolve_sweep_path(doc, args.param)
    _check_grid(args.start, args.stop, args.steps, "--from and --to")
    # the document is decoded once, at --from, so a swept entry out of the
    # float range is never read; each point writes its value into the decoded
    # arrays, which decoded_to_model copies, and the table is sized by n only
    # once the first point has checked n against H
    node[key] = float(args.start)
    decoded = decode_document(doc)
    node, key = resolve_sweep_path(decoded, args.param)
    n = decoded_to_model(decoded, tol_input=args.tol).n
    require_table_size(args.steps, n + 4)
    grid = np.linspace(args.start, args.stop, args.steps)
    table = np.zeros((grid.size, n + 3))

    # row i holds the value, min Re beta, the gap and the occupations of
    # point i; a point that is not Stable leaves its gap and occupations 0
    # and prints them blank
    stability = []
    for i, value in enumerate(grid):
        node[key] = value
        model = decoded_to_model(decoded, tol_input=args.tol)
        struct = build_structure(model)
        spectrum = rapidities(struct.X, args.tol_marginal)
        require_diagonalizable(spectrum.cond_P)
        table[i, :2] = value, spectrum.beta.real.min()
        stability.append(spectrum.stability)
        if spectrum.stability is Stability.STABLE:
            sol = solve(struct.X, struct.Y, spectrum)
            table[i, 2] = spectral_gap(spectrum)
            table[i, 3:] = physical_correlators(sol.Z, n).occupations

    blank = "," * n
    cells = zip(csv_lines(table[:, :2]), csv_lines(table[:, 2:]), stability)
    lines = (
        f"{head},{word.value},{rest if word is Stability.STABLE else blank}"
        for head, rest, word in cells
    )
    header = ["value", "min_re_beta", "stability", "gap"] + [
        f"occ_{j + 1}" for j in range(n)
    ]
    emit(csv_table(header, lines), args.output)
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


@functools.cache  # one parser per process: building one costs about 40 parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thirdq",
        description="Spectra, steady states and dynamics of quadratic bosonic "
        "Lindblad systems, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
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
        return p

    command("analyze", cmd_analyze, "rapidities, stability, spectral gap")
    command("ness", cmd_ness, "steady-state correlator and occupations")

    p = command("spectrum", cmd_spectrum, "decay-mode spectrum as CSV")
    p.add_argument(
        "--max-excitation",
        "-M",
        type=int,
        required=True,
        help="largest total multi-index excitation to enumerate",
    )

    p = command("dynamics", cmd_dynamics, "transient moment trajectories as CSV")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument(
        "--initial",
        default="vacuum",
        help="'vacuum' or a JSON file with C0 (and optional m0)",
    )

    p = command("verify", cmd_verify, "cross-validate against the brute-force oracle")
    p.add_argument("--cutoff", type=int, default=None, help="Fock levels per mode")
    positive = _tolerance(positive=True)
    p.add_argument("--tol-moments", type=positive, default=1e-6)
    p.add_argument("--tol-wick", type=positive, default=None)
    p.add_argument("--tol-spectrum", type=positive, default=None)
    p.add_argument("--tol-trajectory", type=positive, default=None)
    p.add_argument("--trunc-tol", type=positive, default=None)

    p = command("sweep", cmd_sweep, "scan one model scalar over a grid")
    p.add_argument("--param", required=True, help="dotted path, e.g. channels.1.k.0.0")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

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
