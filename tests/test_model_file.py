"""The model-file loader against the published model schema.

``load_model_document`` and ``document_to_model`` are the one validator of
model files at run time; jsonschema with ``schemas/model.schema.json`` is the
reference they are held to here.
"""

import builtins
import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thirdq import InputError, spectral
from thirdq import codec
from thirdq.cli import main
from thirdq.codec import document_to_model, load_model_document
from thirdq.model import validate_model
from thirdq.verify import run_verification

from conftest import (
    SEC4_CHANNELS,
    UNPARSABLE_JSON,
    load_schema,
    sec4_document,
    sec4_model,
    two_mode_document,
    write_model,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _schema_valid(doc) -> bool:
    return jsonschema.Draft202012Validator(load_schema("model.schema.json")).is_valid(doc)


def _broken(edit):
    doc = sec4_document()
    edit(doc)
    return doc


def _channel(**entries):
    def edit(doc):
        doc["channels"][0].update(entries)

    return edit


def _wide(*path, value):
    """A 30-mode document with ``value`` put at ``path``, deep inside a large array.

    A fault there sits past the first row, so the bulk decoding of a
    well-formed array must refuse it and the per-pair walk must name it.
    """
    n = 30
    doc = {
        "n": n,
        "H": [[[float(i == j), 0.0] for j in range(n)] for i in range(n)],
        "channels": [
            {"l": [[0.5, 0.0] for _ in range(n)], "k": [[0.1, 0.0] for _ in range(n)]}
            for _ in range(3)
        ],
    }
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is None:
        node.pop(path[-1])
    else:
        node[path[-1]] = value
    return doc


# one document per schema rule it breaks, with the location its refusal names
CORPUS = {
    "list-root": ([sec4_document()], "model: expected an object"),
    "missing-n": (_broken(lambda d: d.pop("n")), "model: missing key 'n'"),
    "missing-H": (_broken(lambda d: d.pop("H")), "model: missing key 'H'"),
    "missing-channels": (
        _broken(lambda d: d.pop("channels")),
        "model: missing key 'channels'",
    ),
    "unknown-key": (_broken(lambda d: d.update(gamma=1.0)), "model: unknown key 'gamma'"),
    "n-fraction": (_broken(lambda d: d.update(n=1.5)), "n:"),
    "n-string": (_broken(lambda d: d.update(n="1")), "n:"),
    "n-bool": (_broken(lambda d: d.update(n=True)), "n:"),
    "n-zero": (_broken(lambda d: d.update(n=0)), "n:"),
    "channels-object": (
        _broken(lambda d: d.update(channels=d["channels"][0])),
        "channels:",
    ),
    "channel-extra-key": (_broken(_channel(m=[[1.0, 0.0]])), "channels[0]: unknown key"),
    "channel-missing-k": (
        _broken(lambda d: d["channels"][1].pop("k")),
        "channels[1]: missing key 'k'",
    ),
    "channel-not-object": (
        _broken(lambda d: d["channels"].append(0.5)),
        "channels[2]: expected an object",
    ),
    "pair-bool": (_broken(lambda d: d.update(H=[[[True, 0.0]]])), "H[0][0]"),
    "pair-three": (_broken(lambda d: d.update(H=[[[1.0, 0.0, 0.0]]])), "H[0][0]"),
    "H-empty": (_broken(lambda d: d.update(H=[])), "H:"),
    "H-empty-row": (_broken(lambda d: d.update(H=[[]])), "H must"),
    "forces-empty": (_broken(lambda d: d.update(forces=[])), "forces"),
    "offset-scalar": (_broken(_channel(offset=0.5)), "channels[0].offset"),
    "deep-pair-bool": (_wide("H", 17, 4, value=[True, 0.0]), "H[17][4]: expected a"),
    "deep-pair-string": (_wide("H", 17, 4, value=["1", 0.0]), "H[17][4]: expected a"),
    "deep-pair-three": (
        _wide("channels", 2, "l", 23, value=[1.0, 0.0, 0.0]),
        "channels[2].l[23]: expected a",
    ),
    "deep-l-bool": (
        _wide("channels", 2, "l", 23, value=[0.0, False]),
        "channels[2].l[23]: expected a",
    ),
    "deep-row-scalar": (_wide("H", 17, value=1.0), "H[17]: expected an array"),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_schema_violations_are_bad_input(tmp_path, capsys, name):
    doc, where = CORPUS[name]
    assert not _schema_valid(doc)
    path = write_model(tmp_path, doc)
    with pytest.raises(InputError):
        document_to_model(load_model_document(path)[0])
    assert main(["analyze", "--model", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert where in captured.err
    assert "Traceback" not in captured.err


def _locations(node, here=()):
    yield here
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _locations(child, here + (key,))
        else:
            yield here + (key,)


FULL = _broken(lambda d: d.update(forces=[[0.2, 0.1]]))
FULL["channels"][0]["offset"] = [0.5, -0.25]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "H", "l", "k", "x"]), inner, max_size=3),
    max_leaves=6,
) | st.sampled_from([True, 0, 1, 1.0, 1.5, "1", [], {}, [1.0], [True, 0.0], [[1.0, 0.0]]])


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    where=st.sampled_from(list(_locations(FULL))),
    action=st.sampled_from(["replace", "drop", "add"]),
    key=st.sampled_from(["x", "K", "offset", "l"]),
    value=JSON_VALUES,
)
def test_loader_refuses_what_the_schema_refuses(tmp_path, where, action, key, value):
    # a full document with one location replaced, dropped or given one more entry
    root = {"doc": copy.deepcopy(FULL)}
    parent, last = root, "doc"
    for step in where:
        parent, last = parent[last], step
    if action == "replace":
        parent[last] = value
    elif action == "drop" and where:
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last][key] = value
    elif isinstance(parent[last], list):
        parent[last].append(value)
    doc = root["doc"]
    path = write_model(tmp_path, doc)
    try:
        document_to_model(load_model_document(path)[0])
    except InputError:
        return
    assert _schema_valid(doc)


@pytest.mark.parametrize(
    "doc",
    [
        sec4_document(),
        two_mode_document(),
        dict(sec4_document(), n=1.0),
        dict(sec4_document(), channels=[]),
        _broken(_channel(offset=[0.5, -0.25])),
        _broken(lambda d: d.update(forces=[[0.2, 0.1]])),
    ],
    ids=["sec4", "two-mode", "n-integral-float", "no-channels", "offset", "forces"],
)
def test_schema_valid_documents_load(tmp_path, doc):
    assert _schema_valid(doc)
    loaded, _ = load_model_document(write_model(tmp_path, doc))
    model = document_to_model(loaded)
    assert model.n == int(doc["n"])
    assert model.l.shape == model.k.shape == (len(doc["channels"]), model.n)


def test_out_of_range_number_is_bad_input(tmp_path, capsys):
    # the schema accepts any JSON number; one past the float range is refused
    doc = _broken(lambda d: d.update(H=[[[10**400, 0.0]]]))
    assert _schema_valid(doc)
    path = write_model(tmp_path, doc)
    assert main(["analyze", "--model", path]) == 2
    assert "H[0][0]: number outside the float range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        (_wide("H", 17, 4, value=[10**400, 0.0]), "H[17][4]: number outside the float range"),
        (
            _wide("channels", 2, "l", 23, value=[0.0, -(10**400)]),
            "channels[2].l[23]: number outside the float range",
        ),
        (
            _wide("channels", 2, "k", 23, value=[10**400, 0.0]),
            "channels[2].k[23]: number outside the float range",
        ),
        (_wide("H", 17, 29, value=None), "H: ragged rows"),
    ],
    ids=["deep-H-out-of-range", "deep-l-out-of-range", "deep-k-out-of-range", "ragged-row"],
)
def test_deep_schema_valid_faults_are_bad_input(tmp_path, capsys, doc, where):
    # the schema bounds neither the numbers nor the row lengths
    assert _schema_valid(doc)
    assert main(["analyze", "--model", write_model(tmp_path, doc)]) == 2
    assert where in capsys.readouterr().err


def test_well_formed_arrays_skip_the_per_pair_walk(tmp_path, monkeypatch):
    walked = []
    real = codec._pairs

    def counting(obj, depth, where):
        if depth == 0:  # one pair: the walk's leaf
            walked.append(where)
        return real(obj, depth, where)

    monkeypatch.setattr(codec, "_pairs", counting)
    doc = _wide("H", 0, 0, value=[1.0, 0.0])
    doc["K"] = [[[0, 0]] * 30] * 30  # JSON integers decode as well
    doc["forces"] = [[0.2, 0.1]] * 30
    model = document_to_model(load_model_document(write_model(tmp_path, doc))[0])
    assert walked == []
    np.testing.assert_array_equal(model.H, np.eye(30))
    np.testing.assert_array_equal(model.forces, np.full(30, 0.2 + 0.1j))


def test_loader_keys_match_the_schema():
    schema = load_schema("model.schema.json")
    channel = schema["properties"]["channels"]["items"]
    assert schema["additionalProperties"] is False
    assert channel["additionalProperties"] is False
    assert set(codec._MODEL_REQUIRED) == set(schema["required"])
    assert set(codec._MODEL_KEYS) == set(schema["properties"])
    assert set(codec._CHANNEL_REQUIRED) == set(channel["required"])
    assert set(codec._CHANNEL_KEYS) == set(channel["properties"])


def test_cli_import_leaves_jsonschema_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    probe = "import sys, thirdq.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_model_hash_is_of_the_bytes_read_once(tmp_path, capsys, monkeypatch):
    path = write_model(tmp_path, sec4_document())
    expected = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    assert load_model_document(path)[1] == expected

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["analyze", "--model", path]) == 0
    assert len(opened) == 1
    assert json.loads(capsys.readouterr().out)["model_hash"] == expected


def _count_calls(monkeypatch, name):
    """Route every thirdq binding of ``spectral.<name>`` through a counter."""
    calls = []
    real = getattr(spectral, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("thirdq") and (
            getattr(module, name, None) is real
        ):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_diagonalizes_once_with_linear_terms(monkeypatch):
    model = validate_model(1, [[1.0]], [[0.0]], SEC4_CHANNELS, forces=[0.2 + 0.1j])
    calls = _count_calls(monkeypatch, "rapidities")
    _, results = run_verification(model)
    assert len(calls) == 1
    assert np.isfinite(results["mean_max_delta"])


def test_verify_classifies_stability_once(monkeypatch):
    calls = _count_calls(monkeypatch, "classify_stability")
    _, results = run_verification(sec4_model(), cutoff=30)
    assert results["pass"]
    assert len(calls) == 1


def test_spectrum_classifies_stability_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "classify_stability")
    path = write_model(tmp_path, sec4_document())
    assert main(["spectrum", "--model", path, "-M", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
def test_unparsable_bytes_are_bad_input(tmp_path, capsys, name):
    path = tmp_path / "model.json"
    path.write_bytes(UNPARSABLE_JSON[name])
    assert main(["analyze", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON in model file")
    assert str(path) in err
