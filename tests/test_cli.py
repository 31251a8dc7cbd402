import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.sparse.linalg

import thirdq.oracle
from thirdq import build_structure, mean_source, rapidities, steady_mean, validate_model
from thirdq.cli import main
from thirdq.codec import document_to_model, model_to_document

from conftest import (
    UNPARSABLE_JSON,
    dense_chain_model,
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
