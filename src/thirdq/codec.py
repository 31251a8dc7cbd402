"""File formats: model documents, initial-state files, reports and CSV tables.

Model files are JSON documents with complex scalars encoded as two-element
``[re, im]`` arrays (see ``schemas/model.schema.json``).  Reports are JSON
with a fixed key order, laid out as the ``json`` module lays them out at an
indent of 2; bulk numeric output (spectrum, dynamics, sweep) is CSV with a
header row, comma separator and LF line endings.  Both are made as pieces
of at most one spelled block or one CSV row, which :func:`emit` writes as
they come, so no whole output text is held.
Identical invocations produce byte-identical output:

* floats are written exactly as ``repr`` writes them, in the shortest
  round-trip decimal form.  Every table (spectrum, dynamics, sweep) and
  every report array is spelled a block at a time: numpy finds the digits
  of each value it can certify, and ``repr`` spells the rest, so the bytes
  are those of ``repr`` either way;
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
    as_complex,
    validate_model,
)

# the most cells a dynamics or sweep table may hold: 0.8 GB as floats
TABLE_LIMIT = 100_000_000


# ---------------------------------------------------------------------------
# complex / float codecs


def pairs(z) -> np.ndarray:
    """``[re, im]`` along a new last axis of a complex scalar or array."""
    z = np.asarray(z, dtype=complex)
    # + 0.0 folds negative zero into plain zero
    return np.stack([z.real, z.imag], axis=-1) + 0.0


def _bulk_pairs(obj: list, depth: int) -> np.ndarray | None:
    """Decode ``depth`` nested levels of lists of [re, im] pairs in one pass.

    Returns None on anything but a non-empty, rectangular nest whose leaves
    are all ints or floats within the float range; the walk of
    :func:`_pairs` then names the fault.  The leaf types are checked first
    because numpy would convert ``True`` and ``"1"``.
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


def _pairs(obj, depth: int, where: str) -> np.ndarray:
    """Decode a nest of [re, im] pairs ``depth`` deep: 0 a pair, 1 a vector, 2 a matrix.

    A well-formed nest is read in one pass; anything else is walked an
    item at a time, and the walk names the first fault at ``where``, as
    ``H[0][1]`` names a pair of ``H``.
    """
    if depth == 0:
        problem = "expected a [re, im] pair"
        if (
            isinstance(obj, list)
            and len(obj) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
        ):
            try:
                return np.array(complex(obj[0], obj[1]))
            except OverflowError:
                problem = "number outside the float range"
        raise SchemaError(f"{where}: {problem}, got {obj!r}")
    if not isinstance(obj, list) or (depth == 2 and not obj):
        nest = "a nested array" if depth == 2 else "an array"
        raise SchemaError(f"{where}: expected {nest} of [re, im] pairs")
    bulk = _bulk_pairs(obj, depth)
    if bulk is not None:
        return bulk
    items = [_pairs(x, depth - 1, f"{where}[{i}]") for i, x in enumerate(obj)]
    if len({item.shape for item in items}) > 1:
        raise DimensionMismatch(f"{where}: ragged rows")
    return np.array(items, dtype=complex)


def fmt(x) -> str:
    # the tests' per-value reference: repr's shortest form, negative zero folded
    return repr(float(x) + 0.0)


# ---------------------------------------------------------------------------
# float spelling
#
# _spell writes each float as ``repr`` does, a block of values at a time in
# numpy.  A positive normal float is v = f 2^E with an integer f in
# [2^52, 2^53).  With s chosen per E so that 2^52 2^E 10^s lies in
# [10^16, 10^17), w = v 10^s lies in [10^16, 2 10^17), and the floats that
# read back as v are those inside (w - d, w + u) in the same units, where u
# is half the float spacing above v and d half the spacing below (a quarter
# when f = 2^52).  repr writes the multiple of the largest power of ten
# 10^k that lies in that interval, and of several such multiples the one
# nearest w; its digits, followed by k - s, give the decimal exponent.
#
# w and both ends are found as double-doubles (Dekker, Numer. Math. 18:224,
# 1971) from an exact 2^E 10^s, with an error below 2^-45 of a unit, and the
# power of ten is found from their integer floors as in Ryu (Adams, PLDI
# 2018).  A value whose w or either end lies within _MARGIN of an integer,
# or whose w lies within _MARGIN of a half-integer, could have its floors or
# its rounding decided by that error, and repr spells it, as it spells
# subnormal and non-finite values.  Zeros are laid out as 0.0 directly.

_SPELL = 1 << 12  # values spelled by one pass of _spell
_MARGIN = 2.0**-32  # 2^13 times the double-double error
_CELL = 48  # bytes of a spelled value, NUL-padded, the last for a separator
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_VELTKAMP = 2.0**27 + 1  # splits a double into two halves of 26 bits

# by biased exponent: 2^E 10^s as a double-double hi + lo, the Veltkamp
# halves of hi, and s.  A row is made from integers when a value first
# needs it; two threads filling one row write the same numbers, and a row
# is marked only once it is written.
_SCALE = np.ones((4, 2048))
_SHIFT = np.zeros(2048, dtype=np.int64)
_SCALED = np.zeros(2048, dtype=bool)


def _scale_rows(exponents: np.ndarray) -> None:
    """Fill the rows of ``_SCALE`` and ``_SHIFT`` for these biased exponents."""
    for biased in exponents.tolist():
        E = biased - 1075
        # 2^52 2^E 10^s in [10^16, 10^17); tests/test_codec.py spells the
        # power of two at the foot of every binade
        s = math.ceil(16 - (52 + E) * math.log10(2))
        num = 2 ** max(E, 0) * 10 ** max(s, 0)
        den = 2 ** max(-E, 0) * 10 ** max(-s, 0)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        split = hi * _VELTKAMP
        top = split - (split - hi)
        _SCALE[:, biased] = hi, lo, top, hi - top
        _SHIFT[biased] = s
    _SCALED[exponents] = True


def _word_table(rows: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes each as one uint64 word per row."""
    return rows.view(np.uint64)[:, 0]


def _speller_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 8-byte words a spelled value is assembled from.

    A spelled value is six words.  Five hold 20 digits, each followed by a
    slot for the decimal point: three zeros, then the value's 17 digits,
    left-aligned.  The sixth holds the exponent suffix.  Digit words are
    looked up four digits at a time, and a row of ``keep`` clears the digits
    and points the layout does not show.  The six bytes of the three zeros
    take the sign and the ``0.000`` prefix instead.
    """
    digits = np.full((10**4, 8), ord("."), dtype=np.uint8)
    digits[:, ::2] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    # suffixes e-324 .. e+308: "e", sign, two or three digits
    e = np.arange(-324, 309)
    wide = (e < -4) | (e >= 16)
    hundreds, tens, ones = abs(e[wide]) // 100, abs(e[wide]) // 10 % 10, abs(e[wide]) % 10
    suffix = np.zeros((e.size, 8), dtype=np.uint8)
    suffix[wide, 0] = ord("e")
    suffix[wide, 1] = np.where(e[wide] < 0, ord("-"), ord("+"))
    suffix[wide, 2] = np.where(hundreds > 0, hundreds + ord("0"), 0)
    suffix[wide, 3] = tens + ord("0")
    suffix[wide, 4] = ones + ord("0")
    words = np.concatenate([_word_table(digits), _word_table(suffix)])
    # row 18 shown + point + 1 keeps the first `shown` digits, the point
    # after digit `point` (none for -1), and the suffix word
    slot = np.arange(40)
    digit = slot // 2 - 3
    row = np.arange(18 * 18)[:, None]
    shown = np.where(slot % 2 == 0, digit < row // 18, digit == row % 18 - 1) & (digit >= 0)
    keep = np.full((row.size, 48), 0xFF, dtype=np.uint8)
    keep[:, :40] = shown * 0xFF
    # row 8 neg + z: the sign, then for z > 0 the "0." and z - 1 zeros that
    # lead a value of decimal exponent -z
    z = np.arange(16)[:, None] % 8
    prefix = np.zeros((16, 8), dtype=np.uint8)
    prefix[8:, 0] = ord("-")
    prefix[:, 1:6] = np.where((z > 0) & (z < 5) & (np.arange(5) < z + 1), ord("0"), 0)
    prefix[(z[:, 0] > 0) & (z[:, 0] < 5), 2] = ord(".")
    return words, keep.view(np.uint64), _word_table(prefix)


_WORDS, _KEEP, _PREFIX = _speller_words()


def _interval(x: np.ndarray) -> tuple:
    """``W, U, D, frac, s, ok`` of each value of a float array.

    W and frac are the floor and fraction of w, D + 1 .. U the integers
    strictly inside the interval, and ok marks the normal values whose w
    and ends the margins certify.
    """
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.intp)
    ok = (biased > 0) & (biased < 0x7FF)
    biased[~ok] = 1023  # any normal exponent: these values are spelled apart
    scaled = _SCALED[biased]
    if not scaled.all():
        _scale_rows(np.unique(biased[~scaled]))
    mantissa = bits & np.uint64(2**52 - 1)
    below = np.where((mantissa == 0) & (biased > 1), 0.25, 0.5)
    f = (mantissa | np.uint64(2**52)).astype(float)
    hi, lo, hi_top, hi_bottom = _SCALE.take(biased, axis=1)
    # w = p + low: Dekker's product of f and hi is p + err exactly
    p = f * hi
    split = f * _VELTKAMP
    f_top = split - (split - f)
    f_bottom = f - f_top
    low = ((f_top * hi_top - p) + f_top * hi_bottom + f_bottom * hi_top) + f_bottom * hi_bottom
    low += f * lo
    # p >= 10^16 > 2^53 is an integer, so each floor is p plus that of a low part
    base = p.astype(np.int64)
    floors, fractions = [], []
    for t in low, low + 0.5 * hi, low - below * hi:
        t_floor = np.floor(t)
        t -= t_floor
        ok &= abs(t - 0.5) < 0.5 - _MARGIN
        floors.append(base + t_floor.astype(np.int64))
        fractions.append(t)
    ok &= abs(fractions[0] - 0.5) > _MARGIN
    return *floors, fractions[0], _SHIFT[biased], ok


def _shortest(x: np.ndarray) -> tuple:
    """``m, digits, e, ok``: repr's digits of each certified value of ``x``.

    m is the integer of the digits, with no trailing zero, and e the
    decimal exponent of its first digit; a zero has m = 0 and e = 0.  The
    values ok does not mark are left to repr.
    """
    W, U, D, frac, s, ok = _interval(x)
    # the largest 10^k up to U - D has a multiple among D + 1 .. U, and
    # a + 1 .. b are the multiples' quotients
    k = np.searchsorted(_POW10, U - D, "right") - 1
    a, b = D // _POW10[k], U // _POW10[k]
    # a multiple of 10^(k + 1) among them is the only one: strip its zeros
    more = np.flatnonzero(b // 10 > a // 10)
    while more.size:
        a[more] //= 10
        b[more] //= 10
        k[more] += 1
        more = more[b[more] // 10 > a[more] // 10]
    # the multiple nearest w: no tie, w being no integer or half-integer
    q = _POW10[k]
    m = W // q
    m += np.where(k == 0, frac > 0.5, W - m * q >= q // 2)
    np.clip(m, a + 1, b, out=m)
    digits = np.searchsorted(_POW10, m, "right")
    e = digits - 1 + k - s
    zero = x == 0
    plain = zero | ~ok
    m[plain] = 0
    digits[plain] = 1
    e[plain] = 0
    return m, digits, e, ok | zero


def _spell(values: np.ndarray, sep) -> str:
    """Each float of ``values`` as ``repr`` spells it, followed by ``sep``.

    ``sep`` is one byte value, or one per value.
    """
    x = np.ascontiguousarray(values, dtype=float)
    m, digits, e, ok = _shortest(x)
    # the digits left-aligned in 17, as five groups of four (the first has one)
    m *= _POW10[17 - digits]
    upper, lower = divmod(m, 10**8)
    groups = np.empty((x.size, 6), dtype=np.intp)
    groups[:, 0], middle = divmod(upper, 10**8)
    groups[:, 1], groups[:, 2] = divmod(middle, 10**4)
    groups[:, 3], groups[:, 4] = divmod(lower, 10**4)
    groups[:, 5] = 10**4 + 324 + e
    del m, upper, middle, lower
    cells = _WORDS.take(groups)
    del groups
    # repr's layout: fixed notation for -4 <= e < 16, else d.ddde+XX
    fixed = (e >= 0) & (e < 16)
    shown = np.where(fixed, np.maximum(digits, e + 2), digits)
    point = np.where(fixed, e, np.where((digits > 1) & ((e < -4) | (e >= 16)), 0, -1))
    cells &= _KEEP.take(18 * shown + point + 1, axis=0)
    negative = (x.view(np.uint64) >> np.uint64(63)).astype(np.intp)
    cells[:, 0] |= _PREFIX[8 * negative + np.where((e < 0) & (e >= -4), -e, 0)]
    cells = cells.view(np.uint8)
    rest = np.flatnonzero(~ok)
    if rest.size:
        text = b"".join(repr(v).encode().ljust(_CELL, b"\0") for v in x[rest].tolist())
        cells[rest] = np.frombuffer(text, dtype=np.uint8).reshape(rest.size, _CELL)
    cells[:, -1] = sep
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def csv_lines(table: np.ndarray) -> Iterator[str]:
    """Each row of a float table as one CSV line, each value as :func:`fmt` writes it.

    The table is spelled by :func:`_spell` a block of whole rows at a time,
    ``_SPELL // cols`` rows (one row when it is wider), so one block's bytes
    and text are alive at a time.  numpy spells the values it certifies and
    ``repr`` the rest, with the bytes of :func:`fmt` for both.
    """
    rows, cols = table.shape
    if not cols:
        yield from itertools.repeat("", rows)
        return
    step = max(1, _SPELL // cols)
    sep = np.full((step, cols), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    for start in range(0, rows, step):
        block = (table[start : start + step] + 0.0).ravel()
        yield from _spell(block, sep.ravel()[: block.size]).split("\n")[:-1]


def index_lines(table: np.ndarray, top: int) -> Iterator[str]:
    """Each row of a table of integers 0..top as one CSV line, in decimal.

    Each integer indexes one table of the NUL-padded digit strings of
    0..top, each followed by a comma, and the NULs are deleted; rows are
    spelled a block at a time.
    """
    width = len(str(top))
    k = np.arange(top + 1)[:, None]
    power = 10 ** np.arange(width - 1, -1, -1)
    digits = np.zeros((top + 1, width + 1), dtype=np.uint8)
    # leading zeros stay NUL; 0 keeps its last digit
    digits[:, :width] = np.where((k >= power) | (power == 1), k // power % 10 + ord("0"), 0)
    digits[:, width] = ord(",")
    rows = max(1, _SPELL // max(1, table.shape[1]))
    for start in range(0, len(table), rows):
        cells = digits[table[start : start + rows]]
        cells[:, -1, -1] = ord("\n")
        yield from cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _json(value) -> Iterator[str]:
    """``value`` as ``json`` writes it at an indent of 2, in pieces.

    Keys are strings.  A float array is written as its nested list, a complex
    array as nested :func:`pairs`.  Each distinct float of the document's
    arrays is spelled once; then each array is written a block of rows of its
    first axis at a time, from a ``%`` template of at least ``_SPELL`` slots
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
    spelled = np.array(
        [
            text
            for start in range(0, values.size, _SPELL)
            for text in _spell(values[start : start + _SPELL], ord("\n")).split("\n")[:-1]
        ],
        dtype=object,
    )
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
    rows = -(-_SPELL // width)
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
    the keys, ``n`` and the ``channels`` array; :func:`decode_document`
    checks every pair, and :func:`decoded_to_model` every shape and value.
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


def decode_document(doc: dict) -> dict:
    """``doc`` with each [re, im] nest read into a complex array.

    The layout stays, so a sweep path addresses the result too; an offset
    is a 0-d array.  All ``l`` and all ``k`` are decoded as two stacked
    arrays; failing that, each channel is walked in turn to name the fault.
    """
    decoded = {"n": int(doc["n"]), "H": _pairs(doc["H"], 2, "H")}
    if "K" in doc:
        decoded["K"] = _pairs(doc["K"], 2, "K")
    docs = doc.get("channels", [])
    ls, ks = (_bulk_pairs([ch[key] for ch in docs], 2) for key in ("l", "k"))
    stacked = ls is not None and ks is not None
    decoded["channels"] = []
    for i, ch in enumerate(docs):
        entry = {
            "l": ls[i] if stacked else _pairs(ch["l"], 1, f"channels[{i}].l"),
            "k": ks[i] if stacked else _pairs(ch["k"], 1, f"channels[{i}].k"),
        }
        if "offset" in ch:
            entry["offset"] = _pairs(ch["offset"], 0, f"channels[{i}].offset")
        decoded["channels"].append(entry)
    if "forces" in doc:
        decoded["forces"] = _pairs(doc["forces"], 1, "forces")
    return decoded


def decoded_to_model(decoded: dict, tol_input: float = DEFAULT_TOL_INPUT) -> BosonicModel:
    """:func:`validate_model` of a :func:`decode_document` result, whose arrays it copies."""
    H, K, forces = decoded["H"], decoded.get("K"), decoded.get("forces")
    channels = [(ch["l"], ch["k"], ch.get("offset", 0j)) for ch in decoded["channels"]]
    return validate_model(decoded["n"], H, K, channels, forces, tol_input=tol_input)


def document_to_model(doc: dict, tol_input: float = DEFAULT_TOL_INPUT) -> BosonicModel:
    return decoded_to_model(decode_document(doc), tol_input)


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

    Each piece is written as it comes: the writers bound a piece by one
    spelled block or one CSV row, so the whole text is never held at once.
    An unwritable file, or a stdout closed before the end, is bad input.
    """
    if output is None:
        try:
            sys.stdout.writelines(pieces)
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
            fh.writelines(pieces)
    except OSError as e:
        raise InputError(f"cannot write output file {output}: {e}") from None


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
    C0 = as_complex(_pairs(doc["C0"], 2, "C0"), (two_n, two_n), "C0")
    m0 = _pairs(doc["m0"], 1, "m0") if "m0" in doc else np.zeros(two_n)
    return C0, as_complex(m0, (two_n,), "m0")


# ---------------------------------------------------------------------------
# parameter sweeps


def resolve_sweep_path(doc, path: str):
    """Return the container and key of the real scalar a dotted path addresses.

    In a :func:`decode_document` result a complex array stands for its
    [re, im] pairs: the container is a float view, which writes through.
    """
    node, key, value = None, None, doc
    for tok in path.split("."):
        if isinstance(value, np.ndarray) and value.dtype == complex:
            value = value[..., None].view(float)
        if isinstance(value, (list, np.ndarray)):
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
