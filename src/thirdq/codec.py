"""File formats: model documents, initial-state files, reports and CSV tables.

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
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import DimensionMismatch, InputError, SchemaError
from .model import (
    DEFAULT_TOL_INPUT,
    BosonicModel,
    as_complex_matrix,
    as_complex_vector,
    validate_model,
)


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

    A line is joined as its row is formatted, so one row's strings are alive
    at a time.
    """
    for row in table + 0.0:
        yield ",".join(map(repr, row.tolist()))


def index_lines(table: np.ndarray, top: int) -> Iterator[str]:
    """Each row of a table of integers 0..top as one CSV line, in decimal.

    Rows are spelled a block at a time by indexing one array of the
    ``top + 1`` digit strings, so one block's strings are alive at a time.
    """
    digits = np.array([str(k) for k in range(top + 1)], dtype=object)
    block = 4096
    for start in range(0, len(table), block):
        yield from map(",".join, digits[table[start : start + block]].tolist())


def _json(value) -> str:
    """``value`` as ``json`` writes it at an indent of 2, all arrays in one pass.

    Keys are strings.  A float array is written as its nested list, a complex
    array as nested :func:`pairs`.  The whole document is laid out as one
    ``%`` template with a slot per array value, and each distinct float of
    the document is spelled once.
    """
    arrays: list[np.ndarray] = []
    template = _layout(value, 0, arrays)
    if not arrays:
        return template % ()
    floats = np.concatenate([np.ascontiguousarray(a, dtype=float).ravel() for a in arrays])
    # each distinct bit pattern is spelled once, so 0.0 and -0.0 stay apart
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    values = bits.view(float)
    spelled = np.array(list(map(repr, values.tolist())), dtype=object)
    # json spells these three floats differently from repr
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        spelled[i] = _JSON_NON_FINITE[spelled[i]]
    return template % tuple(spelled[where].tolist())


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _layout(value, level: int, arrays: list) -> str:
    """The ``%`` template of ``value``; appends each array it lays out to ``arrays``.

    Every other text is escaped, so the slots of the arrays, in the order
    they were appended, are the template's only conversions.
    """
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = pairs(value)
        if value.size == 0:
            return _layout(value.tolist(), level, arrays)
        arrays.append(value)
        # innermost axis first, each level at the indent of its depth
        template = "%s"
        for axis in range(value.ndim - 1, -1, -1):
            pad = "\n" + "  " * (level + axis + 1)
            body = ("," + pad).join([template] * value.shape[axis])
            template = "[" + pad + body + "\n" + "  " * (level + axis) + "]"
        return template
    if isinstance(value, dict):
        items = [
            json.dumps(k).replace("%", "%%") + ": " + _layout(v, level + 1, arrays)
            for k, v in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_layout(v, level + 1, arrays) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value).replace("%", "%%")
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


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
    for ch in model.channels:
        entry = {"l": pairs(ch.l).tolist(), "k": pairs(ch.k).tolist()}
        if ch.offset != 0:
            entry["offset"] = pairs(ch.offset).tolist()
        doc["channels"].append(entry)
    if model.forces is not None:
        doc["forces"] = pairs(model.forces).tolist()
    return doc


# ---------------------------------------------------------------------------
# output plumbing


def emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout or to the file ``output``; failing that, bad input."""
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write output file {output}: {e}") from None


def report(command: str, model_hash: str, tolerances: dict, results: dict) -> str:
    doc = {
        "command": command,
        "model_hash": model_hash,
        "tool_version": __version__,
        "tolerances": tolerances,
        "results": results,
    }
    return _json(doc) + "\n"


def csv_table(header: list[str], lines: Iterable[str]) -> str:
    return "\n".join([",".join(header), *lines]) + "\n"


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
