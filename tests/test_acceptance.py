"""Acceptance suite: every release gate in one module, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -s` or on failure) and asserts the gate at its pinned tolerance.
"""

import time

import numpy as np
import pytest
import scipy.special

from thirdq import (
    Method,
    Stability,
    bath_matrices,
    build_liouvillean_matrix,
    build_structure,
    build_V,
    liouville_spectrum,
    moment_steps,
    oracle_evolve,
    oracle_spectrum,
    physical_correlators,
    rapidities,
    solve,
    solve_eigenbasis,
    solve_schur,
    spectral_gap,
    vacuum_state,
)
from thirdq.cli import main
from thirdq.verify import run_verification
from thirdq.errors import IllConditioned

from conftest import (
    NEAR_DEFECTIVE_R,
    fit_decay_slope,
    from_real_form,
    multiset_max_delta,
    random_stable_model,
    sec4_document,
    sec4_model,
    two_mode_model,
    write_model,
)

SUITE_SIZE = 500


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def suite():
    """500 random Stable models with their structure and spectra."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    models = [random_stable_model(rng) for _ in range(SUITE_SIZE)]
    return models, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sec4_liouvillean():
    return build_liouvillean_matrix(sec4_model(), 30)


def test_criterion_1_closed_forms_exact_pipeline():
    t0 = time.perf_counter()
    model = sec4_model()
    struct = build_structure(model)
    spectrum = rapidities(struct.X)
    gap = spectral_gap(spectrum)
    corr = physical_correlators(solve(struct.X, struct.Y, spectrum).Z, 1)
    elapsed = time.perf_counter() - t0

    beta_sorted = np.sort_complex(spectrum.beta)
    beta_err = np.abs(beta_sorted - np.array([0.25 - 0.5j, 0.25 + 0.5j])).max()
    gap_err = abs(gap - 0.5)
    occ_err = abs(corr.occupations[0] - 1.0)
    aa_err = abs(corr.pair_aa[0, 0] - (-0.1 + 0.2j))
    ok = beta_err <= 1e-12 and gap_err <= 1e-12 and occ_err <= 1e-10 and aa_err <= 1e-10 and elapsed < 0.1
    _report(
        1,
        ok,
        f"beta {beta_err:.1e}, gap {gap_err:.1e}, occ {occ_err:.1e}, "
        f"aa {aa_err:.1e}, {elapsed * 1e3:.1f} ms",
    )
    assert beta_err <= 1e-12
    assert gap_err <= 1e-12
    assert occ_err <= 1e-10
    assert aa_err <= 1e-10
    assert elapsed < 0.1


def test_criterion_2_oracle_equivalence_single_mode():
    t0 = time.perf_counter()
    _, results = run_verification(sec4_model(), cutoff=30, tol_moments=1e-6)
    elapsed = time.perf_counter() - t0
    ok = (
        results["pass"]
        and results["moment_max_delta"] < 1e-6
        and results["wick_max_delta"] < 1e-5
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"moments {results['moment_max_delta']:.2e}, "
        f"wick {results['wick_max_delta']:.2e}, {elapsed:.1f} s",
    )
    assert results["pass"]
    assert results["moment_max_delta"] < 1e-6
    assert results["wick_max_delta"] < 1e-5
    assert elapsed < 10.0


def test_criterion_3_oracle_spectrum_overlap(sec4_liouvillean):
    got = oracle_spectrum(sec4_liouvillean, 6)
    expected = np.array([0.0, -0.5 - 1j, -0.5 + 1j, -1.0, -1 - 2j, -1 + 2j])
    delta = multiset_max_delta(got, expected)
    ok = delta <= 1e-4
    _report(3, ok, f"max eigenvalue delta {delta:.2e}")
    assert delta <= 1e-4


def test_criterion_4_oracle_equivalence_two_modes():
    t0 = time.perf_counter()
    _, results = run_verification(two_mode_model(), cutoff=6, tol_moments=1e-3)
    elapsed = time.perf_counter() - t0
    ok = results["pass"] and results["moment_max_delta"] < 1e-3 and elapsed < 60.0
    _report(
        4, ok, f"moments {results['moment_max_delta']:.2e}, {elapsed:.1f} s"
    )
    assert results["pass"]
    assert results["moment_max_delta"] < 1e-3
    assert elapsed < 60.0


def test_criterion_5_property_suite(suite):
    models, gen_time = suite
    t0 = time.perf_counter()
    worst = {
        "residual": 0.0,
        "zsym": 0.0,
        "conj": 0.0,
        "sympl": 0.0,
        "occ_im": 0.0,
        "occ_neg": 0.0,
        "trace": 0.0,
    }
    for model, struct, spectrum in models:
        sol = solve(struct.X, struct.Y, spectrum)
        worst["residual"] = max(worst["residual"], sol.residual)
        worst["zsym"] = max(worst["zsym"], np.abs(sol.Z - sol.Z.T).max())

        worst["conj"] = max(
            worst["conj"], multiset_max_delta(spectrum.beta, spectrum.beta.conj())
        )

        V = build_V(spectrum.P, sol.Z)
        two_n = struct.X.shape[0]
        J = np.zeros((2 * two_n, 2 * two_n), dtype=complex)
        J[:two_n, two_n:] = np.eye(two_n)
        J[two_n:, :two_n] = -np.eye(two_n)
        worst["sympl"] = max(
            worst["sympl"], np.linalg.norm(V.T @ J @ V - J)
        )

        n = model.n
        occ = np.diag(sol.Z[:n, n:])
        worst["occ_im"] = max(worst["occ_im"], np.abs(occ.imag).max())
        worst["occ_neg"] = max(worst["occ_neg"], float(-occ.real.min()))

        bath = bath_matrices(model.l, model.k)
        expected = np.trace(bath.M) - np.trace(bath.N)
        scale = max(1.0, abs(expected))
        worst["trace"] = max(
            worst["trace"], abs(np.trace(struct.X) - expected) / scale
        )
    elapsed = gen_time + (time.perf_counter() - t0)
    ok = (
        worst["residual"] <= 1e-9
        and worst["zsym"] == 0.0
        and worst["conj"] <= 1e-8
        and worst["sympl"] <= 1e-9
        and worst["occ_im"] <= 1e-9
        and worst["occ_neg"] <= 1e-9
        and worst["trace"] <= 1e-12
        and elapsed < 60.0
    )
    _report(
        5,
        ok,
        f"residual {worst['residual']:.1e}, conj {worst['conj']:.1e}, "
        f"sympl {worst['sympl']:.1e}, trace {worst['trace']:.1e}, {elapsed:.1f} s",
    )
    assert worst["residual"] <= 1e-9
    assert worst["zsym"] == 0.0
    assert worst["conj"] <= 1e-8
    assert worst["sympl"] <= 1e-9
    assert worst["occ_im"] <= 1e-9
    assert worst["occ_neg"] <= 1e-9
    assert worst["trace"] <= 1e-12
    assert elapsed < 60.0


def _coherent_state(lio, alpha):
    """Single-mode coherent state |alpha><alpha| on the truncated Fock space."""
    k = np.arange(lio.dim)
    amp = alpha**k / np.sqrt(scipy.special.factorial(k))
    amp = amp / np.linalg.norm(amp)
    return np.outer(amp, amp.conj())


def test_criterion_6_dynamics_decay_slope(sec4_liouvillean):
    """Transient relaxation rates over t in [2, 20] against the spectrum.

    The one-excitation modes decay at the gap Delta = 2 min Re beta = 0.5,
    which governs the first moments: |m(t) - m*| from m0 = (1, 1) is held
    to the stated 0.5 +- 5%, and the brute-force means from the matching
    coherent state confirm it.  A covariance obeys its own closed equation,
    C(t) - Z = E(t)^T (C0 - Z) E(t), so it only sees the two-excitation
    modes: |C(t) - Z|_F is held, from any start, to the slowest |m| = 2
    rate 2 Delta = 1.0.
    """
    model = sec4_model()
    struct = build_structure(model)
    spectrum = rapidities(struct.X)
    gap = spectral_gap(spectrum)
    assert abs(gap - 0.5) <= 1e-12, f"spectral gap is {gap!r}, not 0.5"
    times = np.linspace(2.0, 20.0, 37)

    # first moments: Delta; no forces or offsets, so m* = 0
    zero, C0, m0 = np.zeros(2), np.zeros((2, 2)), np.array([1.0, 1.0], dtype=complex)
    _, means = map(np.array, zip(*moment_steps(struct.X, struct.Y, zero, C0, m0, times)))
    slope = fit_decay_slope(times, np.linalg.norm(means, axis=1))
    oracle = oracle_evolve(sec4_liouvillean, _coherent_state(sec4_liouvillean, 1.0), times)
    oracle_slope = fit_decay_slope(times, np.linalg.norm(oracle.means, axis=1))
    mean_delta = np.abs(means - oracle.means).max()

    # covariance: slowest two-excitation rate, 2 Delta
    Z = solve(struct.X, struct.Y, spectrum).Z
    steps = moment_steps(struct.X, struct.Y, zero, C0, zero, times)
    cov_slope = fit_decay_slope(times, [np.linalg.norm(C - Z) for C, _ in steps])
    modes = liouville_spectrum(spectrum, 2)
    two_rate = min(-modes.lam.real[modes.m.sum(axis=1) == 2])

    ok = (
        abs(slope - 0.5) <= 0.05 * 0.5
        and abs(oracle_slope - 0.5) <= 0.05 * 0.5
        and mean_delta <= 1e-6
        and abs(cov_slope - two_rate) <= 0.05 * two_rate
    )
    _report(
        6,
        ok,
        f"|m-m*| slope {slope:.6f} (oracle {oracle_slope:.6f}, "
        f"pointwise {mean_delta:.1e}) vs stated 0.5 +- 5%; "
        f"|C-Z|_F slope {cov_slope:.6f} vs |m|=2 rate {two_rate:.6f} +- 5%",
    )
    assert abs(slope - 0.5) <= 0.05 * 0.5, (
        f"decay slope of |m(t)-m*| is {slope:.6f}; the gap gate demands 0.5 +- 5%"
    )
    assert abs(oracle_slope - 0.5) <= 0.05 * 0.5, (
        f"decay slope of the oracle means is {oracle_slope:.6f}; "
        "the gap gate demands 0.5 +- 5%"
    )
    assert mean_delta <= 1e-6, f"oracle means differ pointwise by {mean_delta:.2e}"
    assert abs(cov_slope - two_rate) <= 0.05 * two_rate, (
        f"decay slope of |C(t)-Z|_F is {cov_slope:.6f}; the slowest |m| = 2 "
        f"mode demands {two_rate:.6f} +- 5%"
    )


def test_criterion_6_dynamics_oracle_pointwise(sec4_liouvillean):
    model = sec4_model()
    struct = build_structure(model)
    times = np.linspace(0.0, 12.0, 25)
    zero, C0 = np.zeros(2), np.zeros((2, 2))
    C, _ = map(np.array, zip(*moment_steps(struct.X, struct.Y, zero, C0, zero, times)))
    oracle = oracle_evolve(sec4_liouvillean, vacuum_state(sec4_liouvillean), times)
    delta = np.abs(C - oracle.cov).max()
    ok = delta <= 1e-5
    _report(6, ok, f"oracle pointwise max delta {delta:.2e}")
    assert delta <= 1e-5


def test_criterion_7_trace_preservation(suite):
    models, _ = suite
    cutoff_by_n = {1: 6, 2: 4, 3: 3, 4: 2, 5: 2}
    worst = 0.0
    for model, _, _ in models:
        lio = build_liouvillean_matrix(model, cutoff_by_n[model.n])
        worst = max(worst, lio.trace_preservation_residual())
    ok = worst <= 1e-10
    _report(7, ok, f"max trace-preservation residual {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_8_stability_boundary(tmp_path, capsys):
    doc = {
        "n": 1,
        "H": [[[1.0, 0.0]]],
        "K": [[[0.0, 0.0]]],
        "channels": [
            {"l": [[1.0, 0.0]], "k": [[0.0, 0.0]]},
            {"l": [[0.0, 0.0]], "k": [[0.5, 0.0]]},
        ],
    }
    path = write_model(tmp_path, doc)
    code = main(
        [
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
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    stab = [r[2] for r in rows]
    v = np.array([float(r[0]) for r in rows]) ** 2
    last_stable = max(i for i, s in enumerate(stab) if s == "Stable")
    first_unstable = min(i for i, s in enumerate(stab) if s == "Unstable")
    # the flip must bracket v = u = 1 within one grid step on either side
    step = v[first_unstable] - v[last_stable]
    ok = (
        v[last_stable] < 1.0 <= v[first_unstable]
        and first_unstable - last_stable <= 2
        and (1.0 - v[last_stable]) <= step
        and (v[first_unstable] - 1.0) <= step
    )
    _report(
        8,
        ok,
        f"flip between v={v[last_stable]:.4f} and v={v[first_unstable]:.4f}",
    )
    assert ok


def test_criterion_9_method_cross_check(suite):
    models, _ = suite
    worst = 0.0
    for _, struct, spectrum in models:
        eb = solve_eigenbasis(struct.X, struct.Y, spectrum)
        bs = solve_schur(struct.X, struct.Y)
        scale = max(1.0, np.linalg.norm(eb.Z))
        worst = max(worst, np.linalg.norm(eb.Z - bs.Z) / scale)

    X = from_real_form(NEAR_DEFECTIVE_R)
    Y = np.array([[0.8, 0.3], [0.3, 1.2]], dtype=complex)
    near_defective = rapidities(X)
    with pytest.raises(IllConditioned):
        solve_eigenbasis(X, Y, near_defective)
    rescue = solve(X, Y, near_defective)
    ok = (
        worst <= 1e-8
        and near_defective.cond_P > 1e9
        and rescue.method is Method.SCHUR
        and rescue.residual <= 1e-8
    )
    _report(
        9,
        ok,
        f"max method disagreement {worst:.2e}, near-defective cond "
        f"{near_defective.cond_P:.1e}, schur residual {rescue.residual:.2e}",
    )
    assert worst <= 1e-8
    assert rescue.method is Method.SCHUR
    assert rescue.residual <= 1e-8
