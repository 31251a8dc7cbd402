import functools
import json
import operator
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.sparse.linalg

import thirdq.cli
import thirdq.oracle
from thirdq import (
    Stability,
    build_structure,
    mean_source,
    physical_correlators,
    rapidities,
    solve,
    spectral_gap,
    steady_mean,
    validate_model,
)
from thirdq.cli import main
from thirdq.codec import document_to_model, fmt, model_to_document

from conftest import (
    UNPARSABLE_JSON,
    dense_chain_model,
    forced_chain_document,
    load_schema,
    sec4_document,
    two_mode_document,
    unstable_sec4_model,
    write_model,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_family_document():
    """Single oscillator with separate loss (u=1) and gain (v=c^2) channels."""
    return {
        "n": 1,
        "H": [[[1.0, 0.0]]],
        "K": [[[0.0, 0.0]]],
        "channels": [
            {"l": [[1.0, 0.0]], "k": [[0.0, 0.0]]},
            {"l": [[0.0, 0.0]], "k": [[0.5, 0.0]]},
        ],
    }


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_analyze_reference_model(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "analyze", "--model", path)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("report.schema.json"))
    res = report["results"]
    assert res["stability"] == "Stable"
    assert res["spectral_gap"] == pytest.approx(0.5, abs=1e-12)
    assert res["S0"] == pytest.approx([0.5, 0.0], abs=1e-12)
    got = sorted(tuple(p) for p in res["rapidities"])
    assert np.allclose(got, [(0.25, -0.5), (0.25, 0.5)], atol=1e-12)
    assert res["trace_identity_residual"] <= 1e-12


def test_analyze_unstable_is_a_result(tmp_path, capsys):
    doc = model_to_document(unstable_sec4_model())
    path = write_model(tmp_path, doc)
    code, out, _ = run_cli(capsys, "analyze", "--model", path)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["stability"] == "Unstable"
    assert report["results"]["spectral_gap"] is None


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1,\n  "H": [[[1.0, 0.0]]\n')
    code, _, err = run_cli(capsys, "analyze", "--model", str(path))
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("missing", ["model file", "initial-state file"])
def test_missing_input_file_is_bad_input(tmp_path, capsys, missing):
    path = write_model(tmp_path, sec4_document())
    absent = str(tmp_path / "absent.json")
    files = (absent, "vacuum") if missing == "model file" else (path, absent)
    code, out, err = run_cli(
        capsys, "dynamics", "--model", files[0], "--t1", "1", "--initial", files[1]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing} {absent}: ")
    assert len(err.splitlines()) == 1


def test_unwritable_output_is_bad_input(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    output = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "analyze", "--model", path, "--output", str(output))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write output file {output}: ")


def test_schema_violation_exit_code(tmp_path, capsys):
    path = write_model(tmp_path, {"n": 1, "H": [[1.0]], "channels": []})
    code, _, err = run_cli(capsys, "analyze", "--model", str(path))
    assert code == 2


def test_hermiticity_violation_exit_code(tmp_path, capsys):
    doc = sec4_document()
    doc["H"] = [[[1.0, 0.3]]]  # complex diagonal breaks Hermiticity
    path = write_model(tmp_path, doc)
    code, _, err = run_cli(capsys, "analyze", "--model", path)
    assert code == 2


def test_ness_reference_model(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "ness", "--model", path)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("report.schema.json"))
    res = report["results"]
    assert res["occupations"] == pytest.approx([1.0], abs=1e-10)
    assert res["residual"] <= 1e-9
    assert res["method"] == "Eigenbasis"
    assert res["pair_aa"][0][0] == pytest.approx([-0.1, 0.2], abs=1e-10)


def test_ness_refuses_marginal(tmp_path, capsys):
    doc = {"n": 1, "H": [[[1.0, 0.0]]], "channels": []}
    path = write_model(tmp_path, doc)
    code, _, err = run_cli(capsys, "ness", "--model", path)
    assert code == 4
    assert "marginal spectrum: Lyapunov solution not unique" in err


@pytest.mark.parametrize("command", ["ness", "verify"])
def test_unstable_model_is_refused(tmp_path, capsys, command):
    path = write_model(tmp_path, model_to_document(unstable_sec4_model()))
    code, out, err = run_cli(capsys, command, "--model", path)
    assert code == 4
    assert out == ""
    assert "unstable spectrum: no steady state exists" in err


def test_ness_three_mode_random_stable(tmp_path, capsys, rng):
    from conftest import random_stable_model

    model, _, _ = random_stable_model(rng, n=3)
    path = write_model(tmp_path, model_to_document(model))
    code, out, _ = run_cli(capsys, "ness", "--model", path)
    assert code == 0
    res = json.loads(out)["results"]
    assert len(res["Z"]) == 6
    assert all(occ >= -1e-9 for occ in res["occupations"])


def test_spectrum_reference_rows(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "spectrum", "--model", path, "--max-excitation", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m_1", "m_2", "re_lambda", "im_lambda"]
    assert len(rows) == 3
    assert [float(x) for x in rows[0][2:]] == [0.0, 0.0]
    values = sorted((float(r[2]), float(r[3])) for r in rows[1:])
    assert np.allclose(values, [(-0.5, -1.0), (-0.5, 1.0)], atol=1e-12)


def test_spectrum_cutoff_zero_and_counts(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "spectrum", "--model", path, "--max-excitation", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    code, out, _ = run_cli(capsys, "spectrum", "--model", path, "--max-excitation", "2")
    _, rows = parse_csv(out)
    assert len(rows) == 6


@pytest.mark.parametrize("seed", range(5))
def test_spectrum_rows_are_the_rates_of_analyzes_rapidities(tmp_path, capsys, seed):
    # bit for bit: lambda = -2 (m_1 beta_1 + (... + m_2n beta_2n)), summed
    # from the last slot as liouville_spectrum sums, negative zero folded
    model = dense_chain_model(np.random.default_rng(seed), 3)
    path = write_model(tmp_path, model_to_document(model))
    code, out, _ = run_cli(capsys, "analyze", "--model", path)
    assert code == 0
    beta = np.array([complex(*pair) for pair in json.loads(out)["results"]["rapidities"]])
    code, out, _ = run_cli(capsys, "spectrum", "--model", path, "-M", "2")
    assert code == 0
    _, rows = parse_csv(out)
    m = np.array([row[: beta.size] for row in rows], dtype=int)
    printed = np.array([row[beta.size :] for row in rows], dtype=float)
    dot = m[:, -1] * beta[-1]
    for r in range(beta.size - 2, -1, -1):
        dot = m[:, r] * beta[r] + dot
    assert np.array_equal((-2.0 * dot).view(float).reshape(-1, 2) + 0.0, printed)


@pytest.mark.parametrize("seed", range(5))
def test_sweep_rows_are_analyze_and_ness_on_the_edited_document(tmp_path, capsys, seed):
    # bit for bit: min Re beta from analyze's rapidities, its gap, and the
    # occupations of ness, on the document edited to each grid value
    doc = model_to_document(dense_chain_model(np.random.default_rng(seed), 3))
    value = doc["H"][0][0][0]
    rows = _sweep_rows(capsys, write_model(tmp_path, doc), "H.0.0.0", value, value + 0.2, 3)
    for row, v in zip(rows, np.linspace(value, value + 0.2, 3)):
        doc["H"][0][0][0] = float(v)
        path = write_model(tmp_path, doc, name="edited.json")
        code, out, _ = run_cli(capsys, "analyze", "--model", path)
        assert code == 0
        analyzed = json.loads(out)["results"]
        code, out, _ = run_cli(capsys, "ness", "--model", path)
        assert code == 0
        occupations = json.loads(out)["results"]["occupations"]
        min_re_beta = min(re for re, _ in analyzed["rapidities"])
        cells = row.split(",")
        assert cells[2] == analyzed["stability"] == "Stable"
        assert [float(cells[0]), float(cells[1]), float(cells[3])] == [
            float(v), min_re_beta, analyzed["spectral_gap"]
        ]
        assert [float(x) for x in cells[4:]] == occupations


def test_verify_and_ness_report_the_same_lyapunov_residual(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "ness", "--model", path)
    assert code == 0
    residual = json.loads(out)["results"]["residual"]
    code, out, _ = run_cli(capsys, "verify", "--model", path)
    assert code == 0
    assert json.loads(out)["results"]["lyapunov_residual"] == residual


def test_spectrum_refuses_marginal(tmp_path, capsys):
    path = write_model(tmp_path, {"n": 1, "H": [[[1.0, 0.0]]], "channels": []})
    code, _, _ = run_cli(capsys, "spectrum", "--model", path, "--max-excitation", "1")
    assert code == 4


def test_dynamics_reference_occupation(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(
        capsys,
        "dynamics",
        "--model",
        path,
        "--t0",
        "0",
        "--t1",
        "20",
        "--steps",
        "41",
    )
    assert code == 0
    assert "warning" not in err
    header, rows = parse_csv(out)
    t = np.array([float(r[0]) for r in rows])
    occ = np.array([float(r[header.index("occ_1")]) for r in rows])
    assert np.abs(occ - (1.0 - np.exp(-t))).max() <= 1e-8


def test_dynamics_single_time_point(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(
        capsys, "dynamics", "--model", path, "--t0", "2", "--t1", "2"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 2.0


def test_dynamics_unstable_banner(tmp_path, capsys):
    path = write_model(tmp_path, model_to_document(unstable_sec4_model()))
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "10", "--steps", "11"
    )
    assert code == 0
    assert "warning" in err
    header, rows = parse_csv(out)
    occ = [float(r[header.index("occ_1")]) for r in rows]
    assert all(b > a for a, b in zip(occ, occ[1:]))


def test_dynamics_holds_one_step_of_its_moments(tmp_path, capsys, rng):
    # C on the whole grid, 1001 x 40 x 40 complex, would take 25.6 MB, more
    # than the CSV's 10 MB; the table of printed moments takes 3.9 MB
    path = write_model(tmp_path, forced_chain_document(rng, 20))
    output = tmp_path / "dynamics.csv"
    argv = ["dynamics", "--model", path, "--t1", "10", "--output", str(output)]
    assert main(argv + ["--steps", "2"]) == 0  # imports load before the trace
    tracemalloc.start()
    try:
        code = main(argv + ["--steps", "1001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < output.stat().st_size


def test_dynamics_table_beyond_the_cell_limit_is_refused(tmp_path, capsys, rng, monkeypatch):
    # 10^7 rows of 2,601 columns, refused before the grid is made: C alone
    # would take 1.46 TiB
    path = write_model(tmp_path, model_to_document(dense_chain_model(rng, 50)))
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "10", "--steps", "10000000"
    )
    assert (code, out) == (5, "")
    assert err == (
        "error: table would hold 10000000 rows of 2601 columns (limit 100000000 cells)\n"
    )
    # 25 rows of t, occ_1, re_aa_1_1 and im_aa_1_1 meet a limit of 100 cells
    monkeypatch.setattr("thirdq.codec.TABLE_LIMIT", 100)
    path = write_model(tmp_path, sec4_document())
    argv = ["dynamics", "--model", path, "--t1", "1"]
    assert run_cli(capsys, *argv, "--steps", "25")[0] == 0
    assert run_cli(capsys, *argv, "--steps", "26")[0] == 5


def test_sweep_table_beyond_the_cell_limit_is_refused(tmp_path, capsys, rng):
    # 10^12 rows, refused before np.linspace would ask for 7.28 TiB
    path = write_model(tmp_path, model_to_document(dense_chain_model(rng, 3)))
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--param", "H.0.0.0",
        "--from", "0", "--to", "1", "--steps", "1000000000000",
    )
    assert (code, out) == (5, "")
    assert err == (
        "error: table would hold 1000000000000 rows of 7 columns (limit 100000000 cells)\n"
    )


def test_sweep_checks_n_against_h_before_sizing_anything_by_n(tmp_path, capsys):
    # n = 10^6 with a 1x1 H: a header or table sized by n would take tens of
    # MB, and seconds, before the first point refused the model
    small = write_model(tmp_path, sec4_document(), name="small.json")
    path = write_model(tmp_path, {"n": 1000000, "H": [[[1.0, 0.0]]], "channels": []})
    grid = ["--param", "H.0.0.0", "--from", "0", "--to", "1", "--steps", "3"]
    assert run_cli(capsys, "sweep", "--model", small, *grid)[0] == 0  # imports load first
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sweep", "--model", path, *grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: H must be 1000000x1000000, got (1, 1)\n"
    assert peak < 5_000_000
    # 200 rows of n + 4 columns pass the cell cap only at the n of H: the
    # model is bad input, not a table too large
    grid[-1] = "200"
    assert run_cli(capsys, "sweep", "--model", path, *grid) == (2, "", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command",
    # a report fails when the file is closed, a CSV of 2,001 rows while it
    # is written
    [["ness"], ["dynamics", "--t1", "10", "--steps", "2001"]],
    ids=["ness", "dynamics"],
)
def test_write_that_fails_after_open_is_bad_input(tmp_path, capsys, command):
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(
        capsys, command[0], "--model", path, *command[1:], "--output", "/dev/full"
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write output file /dev/full: ")


def test_verify_reference_model(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("report.schema.json"))
    res = report["results"]
    assert res["pass"] is True
    assert res["moment_max_delta"] < 1e-6
    assert res["truncation_top_population"] < 1e-8


def test_verify_truncation_gate(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, _, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "4")
    assert code == 5


def test_verify_refuses_a_generator_with_fewer_eigenvalues_than_modes(tmp_path, capsys):
    # pure loss: at cutoff 2 the generator has 4 eigenvalues, the lattice 6
    doc = sweep_family_document()
    del doc["channels"][1]
    path = write_model(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "2")
    assert (code, out) == (5, "")
    assert "has 4 eigenvalues, fewer than the 6 decay modes" in err
    code, out, _ = run_cli(capsys, "verify", "--model", path, "--cutoff", "3")
    assert code == 0
    assert json.loads(out)["results"]["pass"] is True


def test_verify_memcap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THIRDQ_MEMCAP", "1000")
    path = write_model(tmp_path, sec4_document())
    code, _, _ = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 5


def test_verify_memcap_env_not_integer_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THIRDQ_MEMCAP", "lots")
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 2
    assert out == ""
    assert "THIRDQ_MEMCAP must be an integer" in err


@pytest.mark.parametrize("memcap", ["0", "-5"])
def test_verify_memcap_env_below_one_is_bad_input(tmp_path, capsys, monkeypatch, memcap):
    monkeypatch.setenv("THIRDQ_MEMCAP", memcap)
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 2
    assert out == ""
    assert f"THIRDQ_MEMCAP must be at least 1, got '{memcap}'" in err


@pytest.mark.parametrize("cutoff", ["1", "0", "-3"])
def test_verify_cutoff_below_two_is_bad_input(tmp_path, capsys, cutoff):
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", cutoff)
    assert code == 2
    assert out == ""
    assert f"cutoff must be >= 2, got {cutoff}" in err


def test_sweep_stability_boundary(tmp_path, capsys):
    path = write_model(tmp_path, sweep_family_document())
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "channels.1.k.0.0",
        "--from",
        "0",
        "--to",
        "1.4",
        "--steps",
        "141",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["value", "min_re_beta", "stability", "gap", "occ_1"]
    stab = [r[2] for r in rows]
    values = [float(r[0]) for r in rows]
    # gain v = c^2 crosses loss u = 1 exactly at c = 1
    idx = values.index(pytest.approx(1.0))
    assert stab[idx] == "Marginal"
    assert stab[idx - 1] == "Stable" and stab[idx + 1] == "Unstable"
    assert rows[idx][3] == ""  # no gap on the boundary
    assert rows[idx - 1][3] != ""


@pytest.mark.parametrize(
    "document, stop, steps, stabilities",
    [
        (sweep_family_document, 1.4, 141, {"Stable", "Marginal", "Unstable"}),
        (two_mode_document, 1.2, 37, {"Stable", "Unstable"}),
    ],
    ids=["one-mode-family", "two-mode"],
)
def test_sweep_rows_match_the_per_value_table(tmp_path, capsys, document, stop, steps, stabilities):
    # every cell as fmt spells it, and n + 1 blank cells where no steady
    # state exists; the one-mode family meets Marginal exactly at 1.0
    doc = document()
    rows = _sweep_rows(capsys, write_model(tmp_path, doc), "channels.1.k.0.0", 0.0, stop, steps)
    expected = _per_value_rows(doc, "channels.1.k.0.0", np.linspace(0.0, stop, steps))
    assert rows == expected
    assert {row.split(",")[2] for row in rows} == stabilities


def _entry(doc, param):
    """The container and key of the scalar at the dotted path ``param``."""
    *head, last = [int(tok) if tok.isdigit() else tok for tok in param.split(".")]
    return functools.reduce(operator.getitem, head, doc), last


def _per_value_rows(doc, param, values):
    """The rows ``sweep`` writes, each from ``document_to_model`` of ``doc``
    edited to its value, every cell as fmt spells it."""
    node, last = _entry(doc, param)
    expected = []
    for value in values:
        node[last] = float(value)
        model = document_to_model(doc)
        struct = build_structure(model)
        spectrum = rapidities(struct.X)
        row = [fmt(value), fmt(spectrum.beta.real.min()), spectrum.stability.value]
        if spectrum.stability is Stability.STABLE:
            corr = physical_correlators(solve(struct.X, struct.Y, spectrum).Z, model.n)
            row += [fmt(spectral_gap(spectrum))] + [fmt(x) for x in corr.occupations]
        else:
            row += [""] * (model.n + 1)
        expected.append(",".join(row))
    return expected


def _repaired_two_mode_document():
    """The two-mode model with K, forces and an offset; its H is Hermitian
    only to 1e-13, so every point repairs it."""
    doc = two_mode_document()
    doc["H"][0][1][0] += 1e-13
    doc["K"] = [[[0.02, 0.01], [0.005, 0.0]], [[0.005, 0.0], [0.03, -0.01]]]
    doc["forces"] = [[0.2, -0.1], [0.0, 0.3]]
    doc["channels"][0]["offset"] = [0.1, 0.05]
    return doc


@pytest.mark.parametrize(
    "param",
    [
        "H.0.0.0",
        "K.0.0.1",
        "forces.0.1",
        "channels.0.l.0.0",
        "channels.1.k.0.1",
        "channels.0.offset.1",
    ],
)
def test_sweep_rows_match_per_value_decoding_on_every_kind_of_path(tmp_path, capsys, param):
    # one decoded entry is written per point: each row must still be the
    # row of the whole document decoded at that value
    doc = _repaired_two_mode_document()
    assert document_to_model(doc).repaired
    node, last = _entry(doc, param)
    start = node[last] - 0.2
    rows = _sweep_rows(capsys, write_model(tmp_path, doc), param, start, start + 0.6, 7)
    assert rows == _per_value_rows(doc, param, np.linspace(start, start + 0.6, 7))


@pytest.mark.parametrize("steps", [1, 24])
def test_sweep_decodes_its_document_once(tmp_path, capsys, monkeypatch, steps):
    decoded, whole = [], []
    real = thirdq.cli.decode_document
    monkeypatch.setattr(thirdq.cli, "decode_document", lambda doc: decoded.append(doc) or real(doc))
    monkeypatch.setattr(thirdq.cli, "document_to_model", lambda *args, **kw: whole.append(args))
    path = write_model(tmp_path, _repaired_two_mode_document())
    rows = _sweep_rows(capsys, path, "H.0.0.0", 0.5, 1.5, steps)
    assert len(rows) == steps
    assert len(decoded) == 1
    assert whole == []


@pytest.mark.parametrize("stop", ["1.0", "2.0"])
def test_sweep_single_step_matches_analyze(tmp_path, capsys, stop):
    # one step is the grid [--from] whatever --to is
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "H.0.0.0",
        "--from",
        "1.0",
        "--to",
        stop,
        "--steps",
        "1",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 1.0
    assert rows[0][2] == "Stable"
    assert float(rows[0][3]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-10)


def test_sweep_frequency_leaves_gap_constant(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "H.0.0.0",
        "--from",
        "0.5",
        "--to",
        "2.0",
        "--steps",
        "7",
    )
    assert code == 0
    _, rows = parse_csv(out)
    gaps = {float(r[3]) for r in rows}
    assert all(abs(g - 0.5) < 1e-12 for g in gaps)


def test_sweep_bad_path(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "channels.7.k.0.0",
        "--from",
        "0",
        "--to",
        "1",
        "--steps",
        "3",
    )
    assert code == 2


def test_sweep_of_n_is_refused(tmp_path, capsys):
    # the mode count is an integer; a swept float would be truncated to it
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "n",
        "--from",
        "1",
        "--to",
        "1.9",
        "--steps",
        "3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'n'" in err


def _sweep_rows(capsys, path, param, start, stop, steps):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        param,
        "--from",
        repr(float(start)),
        "--to",
        repr(float(stop)),
        "--steps",
        str(steps),
    )
    assert code == 0
    return out.split("\n")[1:-1]


def test_sweep_rows_match_single_point_sweeps(tmp_path, capsys):
    # each point must see its own value and nothing left over from the last
    doc = two_mode_document()
    path = write_model(tmp_path, doc)
    rows = _sweep_rows(capsys, path, "channels.1.k.0.0", 0.0, 1.2, 7)
    assert len(rows) == 7
    single = []
    for value in np.linspace(0.0, 1.2, 7):
        doc["channels"][1]["k"][0][0] = float(value)
        at = write_model(tmp_path, doc, name=f"at-{len(single)}.json")
        single += _sweep_rows(capsys, at, "channels.1.k.0.0", value, value, 1)
    assert rows == single
    assert len({row.split(",", 1)[1] for row in rows}) == 7


def test_sweep_refuses_a_late_invalid_point_before_printing(tmp_path, capsys):
    # H[0][1] leaves H[1][0] = 0.3 behind: Hermitian only at the first point
    path = write_model(tmp_path, two_mode_document())
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--model",
        path,
        "--param",
        "H.0.1.0",
        "--from",
        "0.3",
        "--to",
        "1.3",
        "--steps",
        "5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: H deviates from Hermiticity")


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", "--model", path)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "dynamics", "--model", path, "--t1", "5", "--steps", "11"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_file_matches_stdout(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--model", path, "--output", str(out_path)
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, "analyze", "--model", path)
    assert out_path.read_text() == stdout


def test_verify_two_mode_model(tmp_path, capsys):
    path = write_model(tmp_path, two_mode_document())
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--model",
        path,
        "--cutoff",
        "6",
        "--tol-moments",
        "1e-3",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["pass"] is True
    assert res["moment_max_delta"] < 1e-3


def test_arpack_non_convergence_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0))
        )

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 3
    assert out == ""
    assert err == "error: ARPACK did not converge on a 450-wide block of M for k = 6\n"


def test_any_arpack_failure_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    def failure(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", failure)
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ARPACK failed on a 450-wide block of M for k = 6: ")


def _with_linear_term(tmp_path, term: str, value: str) -> str:
    """The README oscillator with ``value`` (JSON text) as its force or first offset."""
    doc = sec4_document()
    if term == "forces":
        doc["forces"] = "VALUE"
    else:
        doc["channels"][0]["offset"] = "VALUE"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', value))
    return str(path)


@pytest.mark.parametrize("spelling", ["NaN", "1e999"])
@pytest.mark.parametrize(
    "command",
    [["analyze"], ["dynamics", "--t1", "1"], ["verify", "--cutoff", "8"]],
    ids=["analyze", "dynamics", "verify"],
)
def test_non_finite_channel_offset_is_bad_input(tmp_path, capsys, command, spelling):
    path = _with_linear_term(tmp_path, "offset", f"[{spelling}, 0.0]")
    code, out, err = run_cli(capsys, *command, "--model", path)
    assert (code, out, err) == (2, "", "error: channels[0].offset is not finite\n")


# 1e200 squared overflows: the predicted mean occupation, and |L|_F, are inf or NaN
HUGE_LINEAR_TERMS = pytest.mark.parametrize(
    "term, value",
    [("forces", "[[1e200, 0.0]]"), ("offset", "[1e200, 0.0]")],
    ids=["forces", "offset"],
)


@HUGE_LINEAR_TERMS
def test_verify_refuses_an_unbounded_default_cutoff(tmp_path, capsys, term, value):
    path = _with_linear_term(tmp_path, term, value)
    code, out, err = run_cli(capsys, "verify", "--model", path)
    assert (code, out) == (5, "")
    assert err == (
        "error: a predicted occupation of inf needs a Fock cutoff beyond the float range\n"
    )


@HUGE_LINEAR_TERMS
def test_verify_refuses_a_generator_whose_norm_overflows(tmp_path, capsys, term, value):
    path = _with_linear_term(tmp_path, term, value)
    code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "8")
    assert (code, out) == (3, "")
    assert err.startswith("error: generator norm |L|_F = ")
    assert err.endswith(" is not finite\n")


def test_krylov_stepper_without_tolerance_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(thirdq.oracle, "KRYLOV_TOL", 0.0)
    path = write_model(tmp_path, sec4_document())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--model", path, "--cutoff", "30")
    assert code == 3
    assert out == ""
    assert err == (
        "error: Krylov exponential on a 450-wide block of M stalled at t = 0: "
        "step 0.000e+00 after 0 rejections\n"
    )


@pytest.mark.parametrize(
    "document,flags",
    [
        (sec4_document(), ("--cutoff", "30")),
        (two_mode_document(), ("--cutoff", "6", "--tol-moments", "1e-3")),
    ],
    ids=["one-mode", "two-mode"],
)
def test_verify_report_does_not_depend_on_blas_threads(tmp_path, document, flags):
    path = write_model(tmp_path, document)
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-m", "thirdq.cli", "verify", "--model", path, *flags],
            env=env, capture_output=True, check=True,
        )
        reports.append(out.stdout)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv", [("analyze",), ("spectrum", "-M", "2")], ids=["analyze", "spectrum"]
)
def test_rapidity_reports_do_not_depend_on_blas_threads(tmp_path, argv):
    # at n = 50 the two members of a conjugate pair of a complex eig differ
    # in their last bits, and with them which of the two is sorted first
    model = dense_chain_model(np.random.default_rng(1), 50)
    path = write_model(tmp_path, model_to_document(model))
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-m", "thirdq.cli", argv[0], "--model", path, *argv[1:]],
            env=env, capture_output=True, check=True,
        )
        reports.append(out.stdout)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, document, first",
    [
        (["analyze"], sec4_document, None),
        (
            ["ness"],
            lambda: model_to_document(dense_chain_model(np.random.default_rng(1), 50)),
            b"{\n",
        ),
        (
            ["dynamics", "--t1", "10"],
            lambda: forced_chain_document(np.random.default_rng(1), 50),
            b"t,occ_1,occ_2,",
        ),
    ],
    ids=["closed-before-the-flush", "head-1", "csv-head-1"],
)
def test_closed_stdout_is_one_error_line(tmp_path, argv, document, first):
    # a one-mode analyze report fits in stdout's buffer, so only the last
    # flush meets the closed pipe; the 1.5 MB ness report and the 6 MB
    # dynamics CSV of a 50-mode chain fill the pipe long before a reader
    # that takes one line closes it
    path = write_model(tmp_path, document())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "thirdq.cli", argv[0], "--model", path, *argv[1:]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if first is not None:
        assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == b"error: standard output closed before the output was written\n"


def test_exceptional_point_is_refused_where_the_eigenbasis_is_printed(tmp_path, capsys):
    # squeezing at 2|K| = omega merges the two rapidities at beta = 1/2 into
    # one Jordan block, exactly so in the real form: analyze and spectrum
    # refuse, while ness solves on the Schur route and dynamics runs
    model = validate_model(1, [[1.0]], [[0.5]], [([1.0], [0.0])])
    path = write_model(tmp_path, model_to_document(model))
    for argv in (("analyze",), ("spectrum", "-M", "1")):
        code, out, err = run_cli(capsys, argv[0], "--model", path, *argv[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("error: X not diagonalizable within tolerance (cond(P) = ")
    code, out, _ = run_cli(capsys, "ness", "--model", path)
    assert code == 0
    assert json.loads(out)["results"]["method"] == "SchurBartelsStewart"
    assert run_cli(capsys, "dynamics", "--model", path, "--t1", "1")[0] == 0


def test_verify_refuses_an_exceptional_point(tmp_path, capsys):
    # the oracle resolves the Jordan block's eigenvalue only to about the cube
    # root of its tolerance, which would fail the spectrum gate (exit 6)
    model = validate_model(1, [[1.0]], [[0.5]], [([1.0], [0.0])])
    path = write_model(tmp_path, model_to_document(model))
    code, out, err = run_cli(capsys, "verify", "--model", path)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: X not diagonalizable within tolerance (cond(P) = ")


def test_published_schemas_are_byte_identical():
    # every published schema has a packaged twin with the same bytes, and
    # the package ships no schema that is not published
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1]
    published = sorted((repo / "schemas").glob("*.json"))
    packaged = sorted((repo / "src" / "thirdq" / "schemas").glob("*.json"))
    assert published
    assert [p.name for p in published] == [p.name for p in packaged]
    for pub, pkg in zip(published, packaged):
        assert pub.read_bytes() == pkg.read_bytes()


def test_verify_failure_exit_code(tmp_path, capsys):
    # impossible tolerance: report still written, exit 6, worst gate named
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(
        capsys,
        "verify",
        "--model",
        path,
        "--cutoff",
        "30",
        "--tol-moments",
        "1e-12",
    )
    assert code == 6
    res = json.loads(out)["results"]
    assert res["pass"] is False
    assert res["worst"] == "moments"
    assert "moments" in err


def test_spectrum_enumeration_cap(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, _, _ = run_cli(
        capsys, "spectrum", "--model", path, "--max-excitation", "2000"
    )
    assert code == 5


def test_dynamics_initial_state_file(tmp_path, capsys):
    # starting on the fixed point keeps every moment constant
    path = write_model(tmp_path, sec4_document())
    initial = tmp_path / "initial.json"
    Z = [[[-0.1, 0.2], [1.0, 0.0]], [[1.0, 0.0], [-0.1, -0.2]]]
    initial.write_text(json.dumps({"C0": Z, "m0": [[0.3, 0.0], [0.3, 0.0]]}))
    code, out, _ = run_cli(
        capsys,
        "dynamics",
        "--model",
        path,
        "--t1",
        "4",
        "--steps",
        "5",
        "--initial",
        str(initial),
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert "re_mean_a_1" in header
    occ = [float(r[header.index("occ_1")]) for r in rows]
    assert np.abs(np.array(occ) - 1.0).max() <= 1e-10
    # first moments decay from 0.3 at the one-excitation rate
    m_abs = [
        abs(complex(float(r[header.index("re_mean_a_1")]),
                    float(r[header.index("im_mean_a_1")])))
        for r in rows
    ]
    t = np.array([float(r[0]) for r in rows])
    assert np.allclose(m_abs, 0.3 * np.exp(-0.5 * t), atol=1e-10)


@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
def test_unparsable_initial_state_is_bad_input(tmp_path, capsys, name):
    path = write_model(tmp_path, sec4_document())
    initial = tmp_path / "initial.json"
    initial.write_bytes(UNPARSABLE_JSON[name])
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "1", "--initial", str(initial)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed JSON in initial-state file")
    assert str(initial) in err


def test_verify_default_cutoff_passes(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, out, _ = run_cli(capsys, "verify", "--model", path)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pass"] is True
    assert results["cutoff"] >= 30


def test_spectrum_negative_excitation_is_bad_input(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, _, err = run_cli(capsys, "spectrum", "--model", path, "-M", "-1")
    assert code == 2
    assert "max_total_excitation" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--t0", "-1", "--t1", "1"),
        ("--t1", "1", "--steps", "0"),
        ("--t0", "2", "--t1", "1"),
    ],
)
def test_dynamics_bad_grid_is_bad_input(tmp_path, capsys, flags):
    path = write_model(tmp_path, sec4_document())
    code, _, _ = run_cli(capsys, "dynamics", "--model", path, *flags)
    assert code == 2


@pytest.mark.parametrize("forced", [False, True], ids=["reference", "forced"])
@pytest.mark.parametrize(
    "flags,codes",
    [
        (("--t1", "nan"), (2, 2)),
        (("--t1", "inf"), (2, 2)),
        (("--t0", "nan", "--t1", "1"), (2, 2)),
        # h = 5e307: the covariance and the forced mean relax to their fixed points
        (("--t1", "1e308", "--steps", "3"), (0, 0)),
        # h = 1.7e308: 4 |X|_1 h, the Van Loan scaling, is infinite
        (("--t1", "1.7e308", "--steps", "2"), (3, 3)),
    ],
    ids=["t1-nan", "t1-inf", "t0-nan", "t1-1e308", "t1-1.7e308"],
)
def test_dynamics_non_finite_or_huge_grid_is_refused(tmp_path, capsys, flags, codes, forced):
    doc = sec4_document()
    if forced:
        doc["forces"] = [[0.2, 0.1]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dynamics", "--model", path, *flags)
    assert code == codes[forced]
    if code == 0:
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert np.isfinite(np.array(rows, dtype=float)).all()
        assert err == ""
        if forced:
            assert_steady_means(doc, rows[1:])
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def assert_steady_means(doc, rows):
    """The ``<a_j>`` columns of ``rows`` equal the fixed point of the mean flow."""
    model = document_to_model(doc)
    struct = build_structure(model)
    mstar = steady_mean(struct.X, mean_source(model), rapidities(struct.X))[: model.n]
    means = np.array(rows, dtype=float)[:, -2 * model.n :].view(complex)
    assert np.abs(means - mstar).max() <= 1e-12 * np.abs(mstar).max()


@pytest.mark.parametrize("t1", ["1e50", "1e100"])
def test_forced_dynamics_at_long_steps_reaches_the_steady_mean(tmp_path, capsys, t1):
    # one step of h = t1: the mean's Van Loan exponential is scaled and
    # doubled back like the covariance's, so it neither overflows nor doubles
    doc = sec4_document()
    doc["forces"] = [[0.2, 0.1]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dynamics", "--model", path, "--t1", t1, "--steps", "2")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert_steady_means(doc, rows[1:])


@pytest.mark.parametrize("command", ["analyze", "ness", "dynamics", "verify"])
@pytest.mark.parametrize(
    "change,code",
    [
        # (H + H^H) / 2 overflows to inf
        (lambda doc: doc.update(H=[[[1e308, 0.0]]]), 2),
        # the bath matrix l l^H overflows to inf
        (lambda doc: doc["channels"][0].update(l=[[1e200, 0.0]]), 3),
    ],
    ids=["huge-H", "huge-l"],
)
def test_model_overflowing_the_float_range_is_refused(tmp_path, capsys, command, change, code):
    doc = sec4_document()
    change(doc)
    path = write_model(tmp_path, doc)
    extra = ("--t1", "1") if command == "dynamics" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, command, "--model", path, *extra)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "param",
    ["channels.1.k.0.-2", "channels.-1.k.0.0", "channels.+0.k.0.0"],
    ids=["-2", "-1", "+0"],
)
def test_sweep_signed_index_is_refused(tmp_path, capsys, param):
    # Python would take -2 and -1 from the end and +0 as 0: each aliases another scalar
    path = write_model(tmp_path, sec4_document())
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--param", param,
        "--from", "0", "--to", "0.5", "--steps", "2",
    )
    assert code == 2
    assert out == ""
    assert "bad sweep path segment" in err


@pytest.mark.parametrize(
    "param, steps, message",
    [
        ("H.0.0.0", "0", "--steps must be >= 1"),
        ("H.0.0.0.0", "2", "sweep path 'H.0.0.0.0' descends into a scalar"),
        ("H.0.0", "2", "sweep path 'H.0.0' must address one real scalar"),
        ("forces.0.0", "2", "bad sweep path segment 'forces' in 'forces.0.0'"),
    ],
    ids=["no-steps", "below-a-scalar", "a-pair", "absent-forces"],
)
def test_sweep_grid_or_path_that_addresses_no_scalar_is_refused(
    tmp_path, capsys, param, steps, message
):
    path = write_model(tmp_path, sec4_document())  # a model without forces
    code, out, err = run_cli(
        capsys, "sweep", "--model", path, "--param", param,
        "--from", "0", "--to", "0.5", "--steps", steps,
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ness", "--tol-marginal", "-1"),
        ("spectrum", "--tol-marginal", "-1", "-M", "1"),
        ("analyze", "--tol", "nan"),
        ("analyze", "--tol", "inf"),
        ("verify", "--tol-moments", "-1"),
        ("verify", "--tol-moments", "0"),
        ("verify", "--tol-wick", "nan"),
        ("verify", "--tol-spectrum", "0"),
        ("verify", "--tol-trajectory", "-0.001"),
        ("verify", "--trunc-tol", "inf"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_meaningless_tolerances_are_refused(tmp_path, capsys, argv):
    # an unstable model: a negative Marginal band would call it Stable
    path = write_model(tmp_path, model_to_document(unstable_sec4_model()))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--model", path, *argv[1:]])
    assert exc.value.code == 2
    assert "is not a finite number" in capsys.readouterr().err


def test_zero_tolerances_are_accepted(tmp_path, capsys):
    path = write_model(tmp_path, sec4_document())
    code, _, _ = run_cli(
        capsys, "analyze", "--model", path, "--tol", "0", "--tol-marginal", "0"
    )
    assert code == 0


@pytest.mark.parametrize(
    "initial, name",
    [
        ({"C0": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, "C0"),
        (
            {
                "C0": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "m0": [[float("inf"), 0.0], [0.0, 0.0]],
            },
            "m0",
        ),
    ],
    ids=["C0-NaN", "m0-Infinity"],
)
def test_non_finite_initial_state_is_bad_input(tmp_path, capsys, initial, name):
    path = write_model(tmp_path, sec4_document())
    file = tmp_path / "initial.json"
    file.write_text(json.dumps(initial))  # writes the NaN and Infinity literals
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "1", "--steps", "3",
        "--initial", str(file),
    )
    assert code == 2
    assert out == ""
    assert f"error: {name} contains non-finite entries" in err


ZERO_C0 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "initial, name",
    [
        # <a†> = 5 is not conj(<a>) = 1
        ({"C0": ZERO_C0, "m0": [[1.0, 0.0], [5.0, 0.0]]}, "m0"),
        # <a† a> = 0.5 + 0.3i is not real
        ({"C0": [[[0.0, 0.0], [0.5, 0.3]], [[0.5, 0.3], [0.0, 0.0]]]}, "C0"),
        # <a† a†> = 0.7 is not conj(<a a>) = 0.1
        ({"C0": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]}, "C0"),
        # <a† a> = -0.5 is a negative occupation
        ({"C0": [[[0.0, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.0, 0.0]]]}, "C0"),
        # |<a a>|^2 = 4 exceeds <a† a> (<a† a> + 1) = 0.11
        ({"C0": [[[2.0, 0.0], [0.1, 0.0]], [[0.1, 0.0], [2.0, 0.0]]]}, "C0"),
        # <a† a> = -1e200: |C0|_F overflows, the scaled norm does not
        ({"C0": [[[0.0, 0.0], [-1e200, 0.0]], [[-1e200, 0.0], [0.0, 0.0]]]}, "C0"),
    ],
    ids=[
        "m0-not-conjugate",
        "C0-complex-occupation",
        "C0-pairs-not-conjugate",
        "C0-negative-occupation",
        "C0-pairs-beyond-occupation",
        "C0-huge-negative-occupation",
    ],
)
def test_initial_moments_of_no_state_are_bad_input(tmp_path, capsys, initial, name):
    path = write_model(tmp_path, sec4_document())
    file = tmp_path / "initial.json"
    file.write_text(json.dumps(initial))
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "1", "--steps", "3",
        "--initial", str(file),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {name} is not the moments of any state")


@pytest.mark.parametrize(
    "initial, message",
    [
        # a misspelt m0 is refused, as an unknown model key is, not read as zero
        ({"C0": ZERO_C0, "mo": [[1.0, 0.0]] * 2}, "initial-state file: unknown key 'mo'"),
        ([ZERO_C0], "initial-state file must be an object with a C0 matrix"),
        ({"m0": [[0.0, 0.0]] * 2}, "initial-state file must be an object with a C0 matrix"),
    ],
    ids=["unknown-key", "not-an-object", "no-C0"],
)
def test_initial_state_file_keys_are_checked(tmp_path, capsys, initial, message):
    path = write_model(tmp_path, sec4_document())
    file = tmp_path / "initial.json"
    file.write_text(json.dumps(initial))
    code, out, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "1", "--steps", "2",
        "--initial", str(file),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_pure_squeezed_initial_state_is_accepted(tmp_path, capsys):
    # a squeezed vacuum saturates |<aa>|^2 = <a†a>(<a†a> + 1): its <b_i† b_j>
    # has the eigenvalue 0, which only the commutator term keeps from
    # going negative
    r = 1.3
    occ, pair = np.sinh(r) ** 2, -np.sinh(r) * np.cosh(r)
    C0 = [[[pair, 0.0], [occ, 0.0]], [[occ, 0.0], [pair, 0.0]]]
    path = write_model(tmp_path, sec4_document())
    file = tmp_path / "initial.json"
    file.write_text(json.dumps({"C0": C0}))
    code, _, err = run_cli(
        capsys, "dynamics", "--model", path, "--t1", "1", "--steps", "3",
        "--initial", str(file),
    )
    assert (code, err) == (0, "")


def test_overflowing_dynamics_prints_only_the_refusal(tmp_path, capsys):
    path = write_model(tmp_path, model_to_document(unstable_sec4_model()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "dynamics", "--model", path, "--t1", "3000", "--steps", "4"
        )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "warning: unstable rapidity spectrum; moments amplify without bound",
        "error: covariance overflows the float range on this grid",
    ]


def test_overflowing_means_print_only_the_refusal(tmp_path, capsys):
    # a mean of 1e300 leaves the float range by t = 40 and the covariance
    # only near t = 709: the means are refused after the last step
    path = write_model(tmp_path, model_to_document(unstable_sec4_model()))
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps({"C0": [[[0.0, 0.0]] * 2] * 2, "m0": [[1e300, 0.0]] * 2}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "dynamics", "--model", path, "--t1", "40", "--steps", "2",
            "--initial", str(initial),
        )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "warning: unstable rapidity spectrum; moments amplify without bound",
        "error: means overflow the float range on this grid",
    ]


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_sweep_non_finite_bound_is_refused(tmp_path, capsys, flag, value):
    path = write_model(tmp_path, sec4_document())
    bounds = {"--from": "0", "--to": "1"} | {flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.linspace would warn before the refusal
        code, out, err = run_cli(
            capsys, "sweep", "--model", path, "--param", "H.0.0.0",
            *(f"{k}={v}" for k, v in bounds.items()), "--steps", "3",
        )
    assert code == 2
    assert out == ""
    assert err == "error: --from and --to must be finite\n"


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (("dynamics", "--t0=-1e308", "--t1", "1e308"), "--t0 and --t1"),
        (("sweep", "--param", "forces.0.0", "--from=-1e308", "--to", "1e308"), "--from and --to"),
    ],
    ids=["dynamics", "sweep"],
)
def test_a_grid_span_beyond_the_float_range_is_refused(tmp_path, capsys, argv, bounds):
    # both bounds are finite, but np.linspace would overflow in their
    # difference and warn before any later refusal
    doc = sec4_document()
    doc["forces"] = [[0.0, 0.0]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], "--model", path, *argv[1:], "--steps", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {bounds} span more than the float range\n"


def test_entries_past_1e154_run_without_a_warning(tmp_path, capsys):
    # |X|_F overflows once the entries pass about 1e154; realify judges X
    # without forming it
    doc = sweep_family_document()
    doc["channels"] = doc["channels"][:1]
    doc["H"] = [[[1e160, 0.0]]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", "--model", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["stability"] == "Stable"
    doc["H"] = [[[1.0, 0.0]]]
    doc["K"] = [[[1e300, 0.0]]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dynamics", "--model", path, "--t1", "1")
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == "error: covariance overflows the float range on this grid"


@pytest.mark.parametrize(
    "field,message",
    [("H", "H deviates from Hermiticity"), ("K", "K deviates from symmetry")],
)
def test_analyze_huge_antisymmetric_part_is_refused(tmp_path, capsys, field, message):
    doc = two_mode_document()
    doc[field] = [[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]
    path = write_model(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", "--model", path)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
