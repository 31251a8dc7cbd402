"""The file codecs against their per-value references.

Reports must read exactly as ``json.dumps(doc, indent=2)`` of the document
with every array expanded into nested lists (complex values as ``[re, im]``
pairs with negative zero folded), every CSV cell exactly as ``fmt`` spells
it, and every decoded pair exactly as ``complex(re, im)``.  The codecs work
on whole arrays; these tests hold them to the per-value forms.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thirdq import codec
from thirdq.cli import main
from thirdq.codec import document_to_model, model_to_document
from thirdq.lyapunov import solve
from thirdq.model import validate_model
from thirdq.ness import mean_source, moment_steps, physical_correlators
from thirdq.spectral import liouville_spectrum, rapidities
from thirdq.structure import build_structure

from conftest import (
    dense_chain_model,
    forced_chain_document,
    sec4_document,
    two_mode_document,
    write_model,
)


def _neighbours(values):
    """Each value with the floats on either side of it."""
    return [y for x in values for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


# the floats whose spelling is hardest to get right: each power of two (the
# interval below it is half as wide as above), each power of ten and its
# neighbours, the floats on either side of 2^53 (where the spacing grows
# from 1 to 2), repr's switches between fixed and exponent notation, the
# smallest subnormal, the smallest normal and the largest float
EDGE_FLOATS = (
    [2.0**k for k in range(-1074, 1024)]
    + _neighbours([float(f"1e{k}") for k in range(-323, 309)])
    + [2.0**53 - 1, 2.0**53 + 2]
    + _neighbours([1e-5, 1e-4, 1e15, 1e16])
    + [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
# every float the spellings treat apart: signed zeros, subnormals, NaN,
# infinities, and the edges above
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-7, 1e16, -math.inf, math.inf, math.nan] + EDGE_FLOATS
)
SHAPES = st.integers(1, 12).map(lambda n: (n, n)) | hnp.array_shapes(
    min_dims=1, max_dims=3, min_side=0, max_side=5
)


@st.composite
def arrays(draw):
    """A float or complex array, maybe empty, often as a transposed or sliced view."""
    shape = draw(SHAPES)
    re = draw(hnp.arrays(float, shape, elements=FLOATS))
    if draw(st.booleans()):
        arr = re
    else:
        # assigned, not re + 1j*im: that arithmetic turns inf into NaN
        arr = np.empty(shape, dtype=complex)
        arr.real = re
        arr.imag = draw(hnp.arrays(float, shape, elements=FLOATS))
    view = draw(st.sampled_from(["whole", "transpose", "reversed", "strided"]))
    if view == "transpose":
        arr = arr.T
    elif view == "reversed":
        arr = arr[::-1]
    elif view == "strided":
        arr = arr[..., ::2]
    return arr


SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=3)
DOCUMENTS = st.recursive(
    SCALARS | arrays(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _spelled(values) -> list[str]:
    """The speller's text of each value, in a block of at most ``_SPELL``."""
    return codec._spell(np.asarray(values, dtype=float), ord("\n")).split("\n")[:-1]


def test_speller_spells_edge_floats_as_repr():
    values = EDGE_FLOATS + [-x for x in EDGE_FLOATS] + [0.0, -0.0, math.inf, -math.inf, math.nan]
    for start in range(0, len(values), codec._SPELL):
        block = values[start : start + codec._SPELL]
        assert _spelled(block) == list(map(repr, block))


def test_speller_spells_random_bit_patterns_as_repr():
    # 2 * 10^5 uniform bit patterns: all signs and exponents, with NaN,
    # infinities and subnormals among them
    patterns = np.random.default_rng(30).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = patterns.view(float)
    for start in range(0, values.size, codec._SPELL):
        block = values[start : start + codec._SPELL]
        assert _spelled(block) == list(map(repr, block.tolist()))


def _expanded(value):
    """The document with every array written out value by value."""
    if isinstance(value, dict):
        return {k: _expanded(v) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return _expanded(value[()])
    if isinstance(value, (list, np.ndarray)):
        return [_expanded(v) for v in value]
    if isinstance(value, np.complexfloating):
        return [float(value.real) + 0.0, float(value.imag) + 0.0]
    if isinstance(value, np.floating):
        return float(value)
    return value


def _written(doc) -> str:
    """The text the report writer yields for ``doc``, its pieces joined."""
    return "".join(codec._json(doc))


@settings(deadline=None)
@given(DOCUMENTS)
@example({"rows": np.zeros((2, 0)), "none": np.zeros((0, 3), dtype=complex)})
# only array rows are % templates: keys and strings are written as they are
@example({"%s": np.array([1 + 2j, -0.5j]), "a%": "100%s", "%%d": [np.array([0.5])]})
# each distinct float is spelled once per report, wherever it stands
@example({"a": np.array([0.1, 2.0]), "b": np.array([[2.0], [0.1]]), "c": 0.1})
@example({"pos": np.array([0.0, 1.0]), "neg": np.array([-0.0]), "plain": -0.0})
# a first axis of one row, and one longer than a block of rows
@example({"one": np.array([[0.5, -1.0, 2.0]]), "long": np.arange(2.0 * codec._SPELL + 3)})
@example({"empty_rows": np.zeros((3, 0)), "scalar": np.array(-0.0)})
@example([1.5, np.array([[1.0, 2.0], [3.0, 4.0]]), "after"])
@example({"no": ["arrays", 1, None, {"here": -2.5}]})
def test_report_writer_spells_as_json(doc):
    assert _written(doc) == json.dumps(_expanded(doc), indent=2)


def test_report_writer_spells_repeated_and_signed_values_as_json():
    # the writer spells each distinct bit pattern once and reuses it: repeats
    # (a symmetric Z), both zeros in one plain array, non-finite values,
    # empty and 3-d arrays must still read as json.dumps of the nested lists
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    doc = {
        "Z": A + A.T,
        "occupations": np.array([0.5, -0.0, 0.0, 0.5, -0.0, 1e-7, 0.0]),
        "non_finite": np.array([[math.nan, math.inf], [-math.inf, 1.5], [1.5, -math.inf]]),
        "pairs": np.array([complex(math.inf, math.nan), -0.0 - 0.0j, 1.0 - 0.0j, 1.0]),
        "cube": np.arange(24.0).reshape(2, 3, 4) % 5 - 2,
        "complex_cube": (np.arange(8.0) % 3).reshape(2, 2, 2) * (1 - 1j),
        "empty": np.zeros(0),
        "empty_rows": np.zeros((3, 0), dtype=complex),
    }
    nested = {
        key: (codec.pairs(v) if np.iscomplexobj(v) else v).tolist() for key, v in doc.items()
    }
    text = _written(doc)
    assert text == json.dumps(nested, indent=2)
    assert "-0.0" in text


def test_report_writer_spells_many_distinct_floats_as_json(rng):
    # 10,800 distinct floats of every size from 1e-30 to 1e30: three
    # speller blocks and a part of a fourth
    scale = 10.0 ** rng.integers(-30, 30, size=(60, 60))
    doc = {
        "real": rng.normal(size=(60, 60)) * scale,
        "complex": (rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))) * scale,
    }
    assert _written(doc) == json.dumps(_expanded(doc), indent=2)


def test_report_writer_holds_one_block_of_rows(tmp_path, rng):
    # the ness report of a dense 50-mode chain: 35 050 floats, 10 082 of them
    # distinct, in 1.5 MB; a writer that lays out the whole text first holds
    # about three times that
    n = 50
    struct = build_structure(dense_chain_model(rng, n))
    sol = solve(struct.X, struct.Y, rapidities(struct.X))
    corr = physical_correlators(sol.Z, n)
    results = {
        "Z": sol.Z,
        "pair_aa": corr.pair_aa,
        "pair_adad": corr.pair_adad,
        "normal_ad_a": corr.normal_ad_a,
        "occupations": corr.occupations,
        "residual": float(sol.residual),
        "method": sol.method.value,
    }
    output = tmp_path / "ness.json"
    tracemalloc.start()
    try:
        codec.emit(codec.report("ness", "0" * 64, {}, results), str(output))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * output.stat().st_size


@settings(deadline=None)
@given(arrays().filter(lambda a: a.ndim == 2 and not np.iscomplexobj(a)))
# rows wider than a spelling block, and one column over several blocks
@example(np.linspace(-1e-3, 1e20, 3 * (codec._SPELL + 5)).reshape(3, -1))
@example(np.geomspace(1e-300, 1e300, 2 * codec._SPELL + 3)[:, None])
def test_csv_lines_spell_each_value_as_fmt(table):
    expected = [",".join(codec.fmt(x) for x in row) for row in table]
    assert list(codec.csv_lines(table)) == expected


@settings(deadline=None)
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=6).map(lambda s: s + (2,)),
        elements=FLOATS,
    )
)
def test_pair_decoding_matches_the_per_pair_walk(pairs):
    nest = pairs.tolist()
    expected = np.array([[complex(re, im) for re, im in row] for row in nest])
    # bytes, so that signed zeros, infinities and NaN compare exactly
    assert codec._pairs(nest, 2, "H").tobytes() == expected.tobytes()
    assert codec._pairs(nest[0], 1, "l").tobytes() == expected[0].tobytes()
    assert codec._pairs(nest[0][0], 0, "offset").tobytes() == expected[0, 0].tobytes()


def _dynamics_reference(model, times):
    """The table ``dynamics`` writes from the vacuum, cell by cell."""
    struct = build_structure(model)
    n, two_n = model.n, 2 * model.n
    vacuum = np.zeros((two_n, two_n)), np.zeros(two_n)
    C, means = map(
        np.array, zip(*moment_steps(struct.X, struct.Y, mean_source(model), *vacuum, times))
    )
    lines = []
    for i, t in enumerate(times):
        row = [codec.fmt(t)] + [codec.fmt(C[i, j, n + j].real) for j in range(n)]
        for j in range(n):
            for k in range(j, n):
                row += [codec.fmt(C[i, j, k].real), codec.fmt(C[i, j, k].imag)]
        for j in range(n):
            row += [codec.fmt(means[i, j].real), codec.fmt(means[i, j].imag)]
        lines.append(",".join(row))
    return lines


def test_dynamics_lines_match_the_per_value_table(tmp_path, capsys):
    doc = two_mode_document()
    doc["forces"] = [[0.2, -0.1], [0.0, 0.3]]
    path = write_model(tmp_path, doc)
    assert main(["dynamics", "--model", path, "--t1", "2", "--steps", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines[0].split(",")) == len(lines[1].split(",")) == 1 + 2 + 6 + 4
    model = document_to_model(doc)
    assert lines[1:] == _dynamics_reference(model, np.linspace(0.0, 2.0, 9))


def test_dynamics_lines_across_speller_blocks_match_the_per_value_table(tmp_path, capsys, rng):
    # a forced 20-mode chain: 101 rows of 481 cells, 48,581 in all, spelled
    # in 13 blocks of 8 whole rows
    doc = forced_chain_document(rng, 20)
    path = write_model(tmp_path, doc)
    assert main(["dynamics", "--model", path, "--t1", "5", "--steps", "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 102 and len(lines[1].split(",")) == 481
    assert codec._SPELL % 481 and 481 * 101 > 11 * codec._SPELL
    model = document_to_model(doc)
    assert lines[1:] == _dynamics_reference(model, np.linspace(0.0, 5.0, 101))


def _spectrum_reference(doc, cutoff):
    """The rows ``spectrum`` writes, cell by cell."""
    struct = build_structure(document_to_model(doc))
    modes = liouville_spectrum(rapidities(struct.X), cutoff)
    return [
        ",".join([str(mi) for mi in m] + [codec.fmt(lam.real), codec.fmt(lam.imag)])
        for m, lam in zip(modes.m.tolist(), modes.lam)
    ]


def test_spectrum_lines_of_a_chain_match_the_per_value_table(tmp_path, capsys, rng):
    # 861 rows of 40 indices: the index table is spelled in 9 blocks
    doc = model_to_document(dense_chain_model(rng, 20))
    assert main(["spectrum", "--model", write_model(tmp_path, doc), "-M", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + math.comb(42, 2)
    assert lines[1:] == _spectrum_reference(doc, 2)


@pytest.mark.parametrize("top", [0, 1, 9, 10, 11, 99, 100, 12345])
def test_index_lines_spell_each_integer_in_decimal(top):
    table = np.random.default_rng(top).integers(0, top + 1, size=(3 * codec._SPELL // 7 + 5, 7))
    table[0] = top
    expected = [",".join(map(str, row)) for row in table.tolist()]
    assert list(codec.index_lines(table, top)) == expected


def test_spectrum_lines_match_the_per_value_table(tmp_path, capsys):
    for doc in (sec4_document(), two_mode_document()):
        assert main(["spectrum", "--model", write_model(tmp_path, doc), "-M", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == _spectrum_reference(doc, 3)


def _recursive_spectrum_lines(beta, cutoff):
    """Spectrum CSV rows as the recursive-generator enumeration wrote them."""

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    modes = []
    for total in range(cutoff + 1):
        for m in compositions(total, beta.size):
            modes.append((m, complex(-2.0 * np.dot(m, beta))))
    modes.sort(key=lambda d: (-d[1].real, d[0]))
    return [
        ",".join([str(mi) for mi in m] + [codec.fmt(lam.real), codec.fmt(lam.imag)])
        for m, lam in modes
    ]


def _random_chain(rng, n):
    """A hopping chain with local loss above local gain: Stable for any hopping."""
    hop = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    H = np.diag(rng.uniform(0.5, 1.5, n)) + np.diag(hop, 1) + np.diag(hop.conj(), -1)
    loss, gain = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.4, n)
    zero = np.zeros(n)
    channels = [(np.sqrt(u) * e, zero) for u, e in zip(loss, np.eye(n))]
    channels += [(zero, np.sqrt(v) * e) for v, e in zip(gain, np.eye(n))]
    return validate_model(n, H, None, channels)


def test_spectrum_csv_matches_the_recursive_enumeration(tmp_path, capsys, rng):
    doc = model_to_document(_random_chain(rng, 10))
    assert main(["spectrum", "--model", write_model(tmp_path, doc), "-M", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    beta = rapidities(build_structure(document_to_model(doc)).X).beta
    assert len(lines) == 1 + math.comb(22, 2)
    assert lines[1:] == _recursive_spectrum_lines(beta, 2)
