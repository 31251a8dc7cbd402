"""Command line front end and file formats.

Model files are JSON documents with complex scalars encoded as two-element
``[re, im]`` arrays (see ``schemas/model.schema.json``).  Reports are JSON
with a fixed key order, laid out as the ``json`` module lays them out at an
indent of 2; bulk numeric output (spectrum, dynamics, sweep) is CSV with a
header row, comma separator and LF line endings.  Identical invocations
produce byte-identical output:

* floats are written in the shortest round-trip decimal form (``repr``);
* negative zero is written ``0.0`` in ``[re, im]`` pairs and CSV cells, and
  keeps its sign in plain floats such as occupations;
* non-finite values are ``NaN``, ``Infinity`` and ``-Infinity`` in JSON and
  ``nan``, ``inf`` and ``-inf`` in CSV.

``tests/test_codec.py`` holds the writers to these rules.

Exit codes:

    0  success (an Unstable verdict from analyze/sweep/dynamics is a result)
    2  bad input: unreadable/schema-invalid model or initial-state file,
       initial moments that no state has, bad sweep path (or a path into n),
       bad time grid, meaningless tolerance, verify cutoff below 2,
       THIRDQ_MEMCAP not an integer >= 1
    3  numerical failure (e.g. X not diagonalizable, overflowing moments)
    4  stable spectrum required (ness/spectrum/verify on Marginal or Unstable)
    5  enumeration or oracle dimension caps, insufficient truncation
    6  verification failure
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    InputError,
    SchemaError,
    ThirdQError,
)
from .model import DEFAULT_TOL_INPUT, BosonicModel, LindbladChannel, validate_model
from .model import _as_complex_matrix, _as_complex_vector, _deviation
from .structure import build_structure
from .spectral import (
    DEFAULT_TOL_MARGINAL,
    Stability,
    classify_stability,
    liouville_spectrum,
    rapidities,
    spectral_gap,
)
from .lyapunov import RESIDUAL_TOL, solve
from .ness import mean_source, moment_trajectory, physical_correlators
from .oracle import memcap_from_env
from .verify import run_verification


# ---------------------------------------------------------------------------
# complex / float codecs


def _pairs(z) -> np.ndarray:
    """``[re, im]`` along a new last axis of a complex scalar or array."""
    z = np.asarray(z, dtype=complex)
    # + 0.0 folds negative zero into plain zero
    return np.stack([z.real, z.imag], axis=-1) + 0.0


def _from_pair(obj, where: str, index: int | None = None) -> complex:
    """Decode one [re, im] pair; errors name it ``where[index]``."""
    problem = "expected a [re, im] pair"
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        try:
            return complex(obj[0], obj[1])
        except OverflowError:
            problem = "number outside the float range"
    # formatted only on failure: a model file holds O(n^2) pairs
    at = where if index is None else f"{where}[{index}]"
    raise SchemaError(f"{at}: {problem}, got {obj!r}")


def _bulk_pairs(obj: list, depth: int) -> np.ndarray | None:
    """Decode ``depth`` nested levels of lists of [re, im] pairs in one pass.

    Returns None on anything but a non-empty, rectangular nest whose leaves
    are all ints or floats within the float range; the per-pair walk then
    names the fault.  The leaf types are checked first because numpy would
    convert ``True`` and ``"1"``.
    """
    leaves = obj
    for _ in range(depth):
        leaves = itertools.chain.from_iterable(leaves)
    try:
        if not set(map(type, leaves)) <= {int, float}:
            return None
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a scalar row, ragged, 10**400
        return None
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        return None
    # a view, not re + 1j*im: that product turns an infinite imaginary part
    # into a NaN real part
    return arr.view(complex)[..., 0]


def _from_pair_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array of [re, im] pairs")
    v = _bulk_pairs(obj, 1)
    if v is not None:
        return v
    return np.array([_from_pair(x, where, j) for j, x in enumerate(obj)], dtype=complex)


def _from_pair_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nested array of [re, im] pairs")
    A = _bulk_pairs(obj, 2)
    if A is not None:
        return A
    rows = [_from_pair_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = {row.size for row in rows}
    if len(width) != 1:
        raise DimensionMismatch(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _fmt(x) -> str:
    # shortest round-trip decimal form; deterministic for a given value
    return repr(float(x) + 0.0)


def _csv_lines(table: np.ndarray) -> Iterator[str]:
    """Each row of a float table as one CSV line, each value as :func:`_fmt` writes it.

    A line is joined as its row is formatted, so one row's strings are alive
    at a time.
    """
    for row in table + 0.0:
        yield ",".join(map(repr, row.tolist()))


def _index_lines(table: np.ndarray, top: int) -> Iterator[str]:
    """Each row of a table of integers 0..top as one CSV line, in decimal.

    Rows are spelled a block at a time by indexing one array of the
    ``top + 1`` digit strings, so one block's strings are alive at a time.
    """
    digits = np.array([str(k) for k in range(top + 1)], dtype=object)
    block = 4096
    for start in range(0, len(table), block):
        yield from map(",".join, digits[table[start : start + block]].tolist())


def _json(value, level: int = 0) -> str:
    """``value`` as ``json`` writes it at an indent of 2, each array in one pass.

    Keys are strings.  A float array is written as its nested list, a complex
    array as nested :func:`_pairs`.
    """
    if isinstance(value, np.ndarray):
        return _json_array(_pairs(value) if np.iscomplexobj(value) else value, level)
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json(v, level + 1)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json(v, level + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _json_array(arr: np.ndarray, level: int) -> str:
    if arr.size == 0:
        return _json(arr.tolist(), level)
    # json.dumps spells NaN, Infinity and -Infinity; repr is the same elsewhere
    spell = repr if np.isfinite(arr).all() else json.dumps
    texts = map(spell, arr.ravel().tolist())
    # group the innermost axis first, each at the indent of its depth
    for axis in range(arr.ndim - 1, -1, -1):
        size = arr.shape[axis]
        pad = "\n" + "  " * (level + axis + 1)
        group = "[" + pad + ("," + pad).join(["%s"] * size) + "\n" + "  " * (level + axis) + "]"
        texts = map(group.__mod__, zip(*[iter(texts)] * size))
    return next(texts)


# ---------------------------------------------------------------------------
# model files


# the keys model.schema.json requires and allows, at the top and per channel
_MODEL_REQUIRED = ("n", "H", "channels")
_MODEL_KEYS = _MODEL_REQUIRED + ("K", "forces")
_CHANNEL_REQUIRED = ("l", "k")
_CHANNEL_KEYS = _CHANNEL_REQUIRED + ("offset",)


def _check_keys(obj, where: str, required: tuple, allowed: tuple) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key {key!r}")


def _read_json(path: str, what: str) -> tuple[object, bytes]:
    """Read and parse a JSON file; :class:`SchemaError` names ``what`` and ``path``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {what} {path}: {e}") from None
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"malformed JSON in {what} {path} at line {e.lineno} column {e.colno}: "
            f"{e.msg}"
        ) from None
    except (ValueError, RecursionError) as e:  # bad encoding, digit limit, nesting
        raise SchemaError(f"malformed JSON in {what} {path}: {e}") from None


def load_model_document(path: str) -> tuple[dict, str]:
    """Read and parse a model file; return the document and the SHA-256 of its bytes.

    Refuses with :class:`SchemaError` what ``model.schema.json`` refuses on
    the keys, ``n`` and the ``channels`` array; :func:`document_to_model`
    checks every pair, shape and value.
    """
    doc, raw = _read_json(path, "model file")
    _check_keys(doc, "model", _MODEL_REQUIRED, _MODEL_KEYS)
    n = doc["n"]
    integral = isinstance(n, int) or isinstance(n, float) and n.is_integer()
    if isinstance(n, bool) or not integral or n < 1:
        raise SchemaError(f"n: expected an integer >= 1, got {n!r}")
    if not isinstance(doc["channels"], list):
        raise SchemaError("channels: expected an array")
    for i, ch in enumerate(doc["channels"]):
        _check_keys(ch, f"channels[{i}]", _CHANNEL_REQUIRED, _CHANNEL_KEYS)
    return doc, hashlib.sha256(raw).hexdigest()


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
    doc = {"n": model.n, "H": _pairs(model.H).tolist(), "K": _pairs(model.K).tolist()}
    doc["channels"] = []
    for ch in model.channels:
        entry = {"l": _pairs(ch.l).tolist(), "k": _pairs(ch.k).tolist()}
        if ch.offset != 0:
            entry["offset"] = _pairs(ch.offset).tolist()
        doc["channels"].append(entry)
    if model.forces is not None:
        doc["forces"] = _pairs(model.forces).tolist()
    return doc


def _load_model(args) -> tuple[BosonicModel, str]:
    doc, model_hash = load_model_document(args.model)
    return document_to_model(doc, tol_input=args.tol), model_hash


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
    return _json(doc) + "\n"


def _csv(header: list[str], lines: Iterable[str]) -> str:
    return "\n".join([",".join(header), *lines]) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    model, model_hash = _load_model(args)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    stable = spectrum.stability is Stability.STABLE
    trace_resid = abs(np.trace(struct.X) - struct.S0) / max(1.0, abs(struct.S0))
    results = {
        "n": model.n,
        "rapidities": spectrum.beta,
        "stability": spectrum.stability.value,
        "spectral_gap": spectral_gap(spectrum) if stable else None,
        "cond_P": float(spectrum.cond_P),
        "S0": _pairs(struct.S0),
        "trace_identity_residual": float(trace_resid),
    }
    text = _report(
        "analyze",
        model_hash,
        {"tol_input": args.tol, "tol_marginal": args.tol_marginal},
        results,
    )
    _emit(text, args.output)
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
    text = _report(
        "ness",
        model_hash,
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
    model, _ = _load_model(args)
    struct = build_structure(model)
    spectrum = rapidities(struct.X, args.tol_marginal)
    modes = liouville_spectrum(spectrum, args.max_excitation)
    two_n = 2 * model.n
    header = [f"m_{i + 1}" for i in range(two_n)] + ["re_lambda", "im_lambda"]
    lines = (
        index + "," + text
        for index, text in zip(
            _index_lines(modes.m, args.max_excitation), _csv_lines(_pairs(modes.lam))
        )
    )
    _emit(_csv(header, lines), args.output)
    return 0


def _load_initial(path: str, two_n: int):
    doc, _ = _read_json(path, "initial-state file")
    if not isinstance(doc, dict) or "C0" not in doc:
        raise SchemaError("initial-state file must be an object with a C0 matrix")
    # the shape and finiteness checks of model matrices
    C0 = _as_complex_matrix(_from_pair_matrix(doc["C0"], "C0"), two_n, "C0")
    m0 = (
        _as_complex_vector(_from_pair_vector(doc["m0"], "m0"), two_n, "m0")
        if "m0" in doc
        else np.zeros(two_n, dtype=complex)
    )
    # every state has <a†> = conj(<a>), a Hermitian <a† a> and
    # <a† a†> = conj(<a a>): the moments equal their conjugates with the
    # a and a† halves swapped
    swap = np.roll(np.arange(two_n), two_n // 2)
    for name, A, B in (("C0", C0, C0[swap][:, swap].conj()), ("m0", m0, m0[swap].conj())):
        dev, too_large = _deviation(A, B, 1e-8)
        if too_large:
            raise InputError(
                f"{name} is not the moments of any state: it deviates from its "
                f"conjugate with a and a† swapped by {dev:.3e}"
            )
    return C0, m0


def cmd_dynamics(args) -> int:
    model, _ = _load_model(args)
    struct = build_structure(model)
    n, two_n = model.n, 2 * model.n
    if args.initial == "vacuum":
        C0 = np.zeros((two_n, two_n), dtype=complex)
        m0 = np.zeros(two_n, dtype=complex)
    else:
        C0, m0 = _load_initial(args.initial, two_n)

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
    stability = classify_stability(np.linalg.eigvals(struct.X), args.tol_marginal)
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
        _pairs(traj.C[:, rows, cols]).reshape(len(times), -1),
    ]
    if with_means:
        columns.append(_pairs(traj.m[:, :n]).reshape(len(times), -1))
    _emit(_csv(header, _csv_lines(np.hstack(columns))), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification


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
    text = _report("verify", model_hash, tolerances, results)
    _emit(text, args.output)
    if not results["pass"]:
        sys.stderr.write(f"verification failed: worst gate {results['worst']}\n")
        return 6
    return 0


# ---------------------------------------------------------------------------
# parameter sweeps


def _resolve_path(doc, path: str):
    """Return the container and key of the real scalar a dotted path addresses."""
    node, key, value = None, None, doc
    for tok in path.split("."):
        if isinstance(value, list):
            # plain decimal indices only: no sign, space or leading zero
            if tok not in map(str, range(len(value))):
                raise SchemaError(f"bad sweep path segment {tok!r} in {path!r}")
            node, key, value = value, int(tok), value[int(tok)]
        elif isinstance(value, dict):
            if tok not in value:
                raise SchemaError(f"bad sweep path segment {tok!r} in {path!r}")
            node, key, value = value, tok, value[tok]
        else:
            raise SchemaError(f"sweep path {path!r} descends into a scalar")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"sweep path {path!r} must address one real scalar")
    if node is doc and key == "n":
        raise SchemaError("sweep path 'n' is the mode count, which cannot be swept")
    return node, key


def cmd_sweep(args) -> int:
    doc, _ = load_model_document(args.model)
    node, key = _resolve_path(doc, args.param)
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
        stable = spectrum.stability is Stability.STABLE
        row = [
            _fmt(value),
            _fmt(spectrum.beta.real.min()),
            spectrum.stability.value,
        ]
        if stable:
            sol = solve(struct.X, struct.Y, spectrum)
            corr = physical_correlators(sol.Z, model.n)
            row.append(_fmt(spectral_gap(spectrum)))
            row.extend(_fmt(x) for x in corr.occupations)
        else:
            row.append("")
            row.extend("" for _ in range(model.n))
        rows.append(",".join(row))

    header = ["value", "min_re_beta", "stability", "gap"] + [
        f"occ_{j + 1}" for j in range(n)
    ]
    _emit(_csv(header, rows), args.output)
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
