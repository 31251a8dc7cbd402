"""File formats: model documents, initial-state files, reports and CSV tables.

Model files are JSON documents with complex scalars encoded as two-element
``[re, im]`` arrays (see ``schemas/model.schema.json``).  Reports are JSON
with a fixed key order, laid out as the ``json`` module lays them out at an
indent of 2; bulk numeric output (spectrum, dynamics, sweep) is CSV with a
header row, comma separator and LF line endings.  Both are made as pieces
that :func:`emit` writes as they come, so no whole output text is held.
Identical invocations produce byte-identical output:

* floats are written in the shortest round-trip decimal form (``repr``);
* negative zero is written ``0.0`` in ``[re, im]`` pairs and CSV cells, and
  keeps its sign in plain floats such as occupations;
* non-finite values are ``NaN``, ``Infinity`` and ``-Infinity`` in JSON and
  ``nan``, ``inf`` and ``-inf`` in CSV.

``tests/test_codec.py`` holds the writers to these rules.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import CapError, DimensionMismatch, InputError, SchemaError
from .model import (
    DEFAULT_TOL_INPUT,
    BosonicModel,
    as_complex_matrix,
    as_complex_vector,
    validate_model,
)

# the most cells a dynamics or sweep table may hold: 0.8 GB as floats
TABLE_LIMIT = 100_000_000
_SLICE = 1 << 16  # characters passed to one write
_BLOCK = 1 << 16  # table values converted to Python floats at once


# ---------------------------------------------------------------------------
# complex / float codecs


def pairs(z) -> np.ndarray:
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


def fmt(x) -> str:
    # shortest round-trip decimal form; deterministic for a given value
    return repr(float(x) + 0.0)


def csv_lines(table: np.ndarray) -> Iterator[str]:
    """Each row of a float table as one CSV line, each value as :func:`fmt` writes it.

    Rows become Python floats a block of about ``_BLOCK`` values at a time,
    and a line is joined as its row is formatted, so one block's floats and
    one row's strings are alive at a time.
    """
    rows = _BLOCK // max(1, table.shape[1]) or 1
    for start in range(0, len(table), rows):
        for row in (table[start : start + rows] + 0.0).tolist():
            yield ",".join(map(repr, row))


def index_lines(table: np.ndarray, top: int) -> Iterator[str]:
    """Each row of a table of integers 0..top as one CSV line, in decimal.

    Rows are spelled a block at a time by indexing one array of the
    ``top + 1`` digit strings, so one block's strings are alive at a time.
    """
    digits = np.array([str(k) for k in range(top + 1)], dtype=object)
    block = 4096
    for start in range(0, len(table), block):
        yield from map(",".join, digits[table[start : start + block]].tolist())


def _json(value) -> Iterator[str]:
    """``value`` as ``json`` writes it at an indent of 2, in pieces.

    Keys are strings.  A float array is written as its nested list, a complex
    array as nested :func:`pairs`.  Each distinct float of the document's
    arrays is spelled once; then each array is written a block of rows of its
    first axis at a time, from a ``%`` template of at least ``_SLOTS`` slots
    (fewer only in a short last block), so the spelled floats and one block
    are alive, never the whole text.
    """
    parts, spelled, where = _spelled_layout(value)
    start = 0
    for part in parts:
        if isinstance(part, str):
            yield part
            continue
        shape, level = part
        size = math.prod(shape)
        yield from _array_text(shape, level, spelled, where[start : start + size])
        start += size


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SLOTS = 1 << 12  # array values formatted by one % call


def _spelled_layout(value) -> tuple[list, np.ndarray, np.ndarray]:
    """Lay out ``value`` and spell each distinct float of its arrays once.

    The layout is the text of ``value`` in order, with a ``(shape, level)``
    tuple standing for each non-empty array.  ``spelled[where]`` are the
    arrays' values in that order, each flattened in C order.  The arrays
    themselves are not kept.
    """
    parts: list = []
    arrays: list[np.ndarray] = []
    _layout(value, 0, parts, arrays)
    flat = [np.asarray(a, dtype=float).ravel() for a in arrays] or [np.zeros(0)]
    floats = np.concatenate(flat)
    del arrays, flat  # the pairs of complex arrays are copies
    # each distinct bit pattern is spelled once, so 0.0 and -0.0 stay apart
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    values = bits.view(float)
    spelled = np.array(list(map(repr, values.tolist())), dtype=object)
    # json spells these three floats differently from repr
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        spelled[i] = _JSON_NON_FINITE[spelled[i]]
    return parts, spelled, where


def _layout(value, level: int, parts: list, arrays: list) -> None:
    """Append ``value``'s text to ``parts`` and its non-empty arrays to ``arrays``.

    An array stands in ``parts`` as the ``(shape, level)`` of its text.
    """
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = pairs(value)
        if value.size:
            parts.append((value.shape, level))
            arrays.append(value)
            return
        value = value.tolist()
    if isinstance(value, dict):
        items, brackets = [(json.dumps(k) + ": ", v) for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [("", v) for v in value], "[]"
    else:
        parts.append(json.dumps(value))
        return
    if not items:
        parts.append(brackets)
        return
    pad = "\n" + "  " * (level + 1)
    for i, (key, item) in enumerate(items):
        parts.append(("," if i else brackets[0]) + pad + key)
        _layout(item, level + 1, parts, arrays)
    parts.append("\n" + "  " * level + brackets[1])


def _array_text(shape: tuple, level: int, spelled, where) -> Iterator[str]:
    """The text of a non-empty array of ``shape`` holding ``spelled[where]``."""
    if not shape:
        yield spelled[where[0]]
        return
    # one row of the first axis: innermost axis first, each level at the
    # indent of its depth
    row = "%s"
    for axis in range(len(shape) - 1, 0, -1):
        pad = "\n" + "  " * (level + axis + 1)
        body = ("," + pad).join([row] * shape[axis])
        row = "[" + pad + body + "\n" + "  " * (level + axis) + "]"
    sep = ",\n" + "  " * (level + 1)
    width = math.prod(shape[1:])
    rows = -(-_SLOTS // width)
    block = sep.join([row] * rows)
    yield "[" + sep[1:]
    for first in range(0, shape[0], rows):
        count = min(rows, shape[0] - first)
        if first:
            yield sep
        template = block if count == rows else sep.join([row] * count)
        values = spelled[where[first * width : (first + count) * width]]
        yield template % tuple(values.tolist())
    yield "\n" + "  " * level + "]"


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


def _offset(ch: dict, i: int) -> complex:
    return _from_pair(ch["offset"], f"channels[{i}].offset") if "offset" in ch else 0j


def _channels(docs: list) -> list[tuple]:
    """``(l, k, offset)`` of each channel document.

    All ``l`` and all ``k`` are decoded as two stacked arrays; failing that,
    the per-channel walk names the fault.
    """
    ls = _bulk_pairs([ch["l"] for ch in docs], 2)
    ks = _bulk_pairs([ch["k"] for ch in docs], 2)
    if ls is None or ks is None:
        return [
            (
                _from_pair_vector(ch["l"], f"channels[{i}].l"),
                _from_pair_vector(ch["k"], f"channels[{i}].k"),
                _offset(ch, i),
            )
            for i, ch in enumerate(docs)
        ]
    return list(zip(ls, ks, (_offset(ch, i) for i, ch in enumerate(docs))))


def document_to_model(doc: dict, tol_input: float = DEFAULT_TOL_INPUT) -> BosonicModel:
    n = int(doc["n"])
    H = _from_pair_matrix(doc["H"], "H")
    K = _from_pair_matrix(doc["K"], "K") if "K" in doc else None
    channels = _channels(doc.get("channels", []))
    forces = _from_pair_vector(doc["forces"], "forces") if "forces" in doc else None
    return validate_model(n, H, K, channels, forces, tol_input=tol_input)


def model_to_document(model: BosonicModel) -> dict:
    doc = {"n": model.n, "H": pairs(model.H).tolist(), "K": pairs(model.K).tolist()}
    doc["channels"] = []
    for l_mu, k_mu, lam in zip(model.l, model.k, model.offsets):
        entry = {"l": pairs(l_mu).tolist(), "k": pairs(k_mu).tolist()}
        if lam != 0:
            entry["offset"] = pairs(lam).tolist()
        doc["channels"].append(entry)
    if model.forces.any():
        doc["forces"] = pairs(model.forces).tolist()
    return doc


# ---------------------------------------------------------------------------
# output plumbing


def emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces of a text in order to stdout or to the file ``output``.

    Short pieces are joined and long ones cut into slices of about
    ``_SLICE`` characters, so no write encodes more than a slice and the
    whole text is never held at once.  An unwritable file, or a stdout
    closed before the end, is bad input.
    """
    if output is None:
        try:
            sys.stdout.writelines(_slices(pieces))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone (as with `| head -1`): send what stdout still
            # buffers nowhere, so that the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InputError(
                "standard output closed before the output was written"
            ) from None
        return
    try:
        with open(output, "w", newline="") as fh:
            fh.writelines(_slices(pieces))
    except OSError as e:
        raise InputError(f"cannot write output file {output}: {e}") from None


def _slices(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces`` joined, in order, and cut into strings of about ``_SLICE`` characters."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _SLICE:
            text = "".join(batch)  # one piece is joined without a copy
            for start in range(0, len(text), _SLICE):
                yield text[start : start + _SLICE]
            batch, size = [], 0
    yield "".join(batch)


def report(
    command: str, model_hash: str, tolerances: dict, results: dict
) -> Iterator[str]:
    """The JSON report of a command, in pieces for :func:`emit`."""
    doc = {
        "command": command,
        "model_hash": model_hash,
        "tool_version": __version__,
        "tolerances": tolerances,
        "results": results,
    }
    yield from _json(doc)
    yield "\n"


def csv_table(header: list[str], lines: Iterable[str]) -> Iterator[str]:
    """The CSV text of a header and its lines, a line at a time, for :func:`emit`."""
    yield ",".join(header) + "\n"
    for line in lines:
        yield line + "\n"


def require_table_size(rows: int, columns: int) -> None:
    """Refuse a table of more than ``TABLE_LIMIT`` cells with :class:`CapError`."""
    if rows * columns > TABLE_LIMIT:
        raise CapError(
            f"table would hold {rows} rows of {columns} columns "
            f"(limit {TABLE_LIMIT} cells)"
        )


# ---------------------------------------------------------------------------
# initial-state files


def load_initial_state(path: str, two_n: int) -> tuple[np.ndarray, np.ndarray]:
    """``C0`` and ``m0`` (zero if absent) of an initial-state file, ``two_n`` wide.

    Checks the format, the shapes and finiteness;
    :func:`thirdq.ness.require_state_moments` checks that a state has them.
    """
    doc, _ = _read_json(path, "initial-state file")
    if not isinstance(doc, dict) or "C0" not in doc:
        raise SchemaError("initial-state file must be an object with a C0 matrix")
    _check_keys(doc, "initial-state file", ("C0",), ("C0", "m0"))
    # the shape and finiteness checks of model matrices
    C0 = as_complex_matrix(_from_pair_matrix(doc["C0"], "C0"), two_n, "C0")
    m0 = (
        as_complex_vector(_from_pair_vector(doc["m0"], "m0"), two_n, "m0")
        if "m0" in doc
        else np.zeros(two_n, dtype=complex)
    )
    return C0, m0


# ---------------------------------------------------------------------------
# parameter sweeps


def resolve_sweep_path(doc, path: str):
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
