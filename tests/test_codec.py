"""The file codecs against their per-value references.

Reports must read exactly as ``json.dumps(doc, indent=2)`` of the document
with every array expanded into nested lists (complex values as ``[re, im]``
pairs with negative zero folded), every CSV cell exactly as ``fmt`` spells
it, and every decoded pair exactly as ``complex(re, im)``.  The codecs work
on whole arrays; these tests hold them to the per-value forms.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thirdq import codec
from thirdq.cli import main
from thirdq.codec import document_to_model, model_to_document
from thirdq.model import LindbladChannel, validate_model
from thirdq.ness import mean_source, moment_trajectory
from thirdq.spectral import liouville_spectrum, rapidities
from thirdq.structure import build_structure

from conftest import sec4_document, two_mode_document, write_model

# every float the spellings treat apart: signed zeros, subnormals, NaN, infinities
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-7, 1e16, -math.inf, math.inf, math.nan]
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


def _expanded(value):
    """The document with every array written out value by value."""
    if isinstance(value, dict):
        return {k: _expanded(v) for k, v in value.items()}
    if isinstance(value, (list, np.ndarray)):
        return [_expanded(v) for v in value]
    if isinstance(value, np.complexfloating):
        return [float(value.real) + 0.0, float(value.imag) + 0.0]
    if isinstance(value, np.floating):
        return float(value)
    return value


@settings(deadline=None)
@given(DOCUMENTS)
@example({"rows": np.zeros((2, 0)), "none": np.zeros((0, 3), dtype=complex)})
# the whole report is one % template: keys and strings must not act as slots
@example({"%s": np.array([1 + 2j, -0.5j]), "a%": "100%s", "%%d": [np.array([0.5])]})
# each distinct float is spelled once per report, wherever it stands
@example({"a": np.array([0.1, 2.0]), "b": np.array([[2.0], [0.1]]), "c": 0.1})
@example({"pos": np.array([0.0, 1.0]), "neg": np.array([-0.0]), "plain": -0.0})
def test_report_writer_spells_as_json(doc):
    assert codec._json(doc) == json.dumps(_expanded(doc), indent=2)


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
    text = codec._json(doc)
    assert text == json.dumps(nested, indent=2)
    assert "-0.0" in text


@settings(deadline=None)
@given(arrays().filter(lambda a: a.ndim == 2 and not np.iscomplexobj(a)))
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
    assert codec._from_pair_matrix(nest, "H").tobytes() == expected.tobytes()
    assert codec._from_pair_vector(nest[0], "l").tobytes() == expected[0].tobytes()


def _dynamics_reference(model, times):
    """The table ``dynamics`` writes from the vacuum, cell by cell."""
    struct = build_structure(model)
    n, two_n = model.n, 2 * model.n
    traj = moment_trajectory(
        struct.X, struct.Y, mean_source(model), np.zeros((two_n, two_n)), None, times
    )
    C, means = traj.C, traj.m
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


def test_spectrum_lines_match_the_per_value_table(tmp_path, capsys):
    for doc in (sec4_document(), two_mode_document()):
        assert main(["spectrum", "--model", write_model(tmp_path, doc), "-M", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        struct = build_structure(document_to_model(doc))
        modes = liouville_spectrum(rapidities(struct.X), 3)
        expected = [
            ",".join([str(mi) for mi in m] + [codec.fmt(lam.real), codec.fmt(lam.imag)])
            for m, lam in zip(modes.m.tolist(), modes.lam)
        ]
        assert lines[1:] == expected


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
    channels = [LindbladChannel(l=np.sqrt(u) * e, k=zero) for u, e in zip(loss, np.eye(n))]
    channels += [LindbladChannel(l=zero, k=np.sqrt(v) * e) for v, e in zip(gain, np.eye(n))]
    return validate_model(n, H, None, channels)


def test_spectrum_csv_matches_the_recursive_enumeration(tmp_path, capsys, rng):
    doc = model_to_document(_random_chain(rng, 10))
    assert main(["spectrum", "--model", write_model(tmp_path, doc), "-M", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    beta = rapidities(build_structure(document_to_model(doc)).X).beta
    assert len(lines) == 1 + math.comb(22, 2)
    assert lines[1:] == _recursive_spectrum_lines(beta, 2)
