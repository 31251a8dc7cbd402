import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

import thirdq.ness
from thirdq import (
    AsymmetricZ,
    DefectiveX,
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NonSymmetricInitial,
    NotStable,
    NumericalError,
    build_structure,
    mean_source,
    moment_steps,
    physical_correlators,
    rapidities,
    require_diagonalizable,
    solve,
    solve_schur,
    spectral_gap,
    steady_mean,
    validate_model,
    wick_moment,
)
from thirdq.cli import main
from thirdq.codec import model_to_document
from thirdq.ness import _PADE, _moment_step, _pade_expm

from conftest import (
    closed_model,
    dense_chain_model,
    fit_decay_slope,
    random_stable_model,
    sec4_model,
    unstable_sec4_model,
    write_model,
)


def _sec4_solution():
    struct = build_structure(sec4_model())
    sp = rapidities(struct.X)
    return struct, sp, solve(struct.X, struct.Y, sp)


def test_reference_correlators():
    _, _, sol = _sec4_solution()
    corr = physical_correlators(sol.Z, 1)
    assert corr.occupations[0] == pytest.approx(1.0, abs=1e-12)
    assert corr.pair_aa[0, 0] == pytest.approx(-0.1 + 0.2j, abs=1e-12)
    assert corr.pair_adad[0, 0] == pytest.approx(-0.1 - 0.2j, abs=1e-12)
    assert np.allclose(corr.pair_adad, corr.pair_aa.conj(), atol=1e-9)


def test_vacuum_correlators():
    corr = physical_correlators(np.zeros((4, 4)), 2)
    assert not corr.pair_aa.any()
    assert not corr.occupations.any()


def test_asymmetric_z_rejected():
    Z = np.zeros((2, 2), dtype=complex)
    Z[0, 1] = 1.0
    with pytest.raises(AsymmetricZ):
        physical_correlators(Z, 1)
    # |Z - Z^T|_F overflows; the scaled norm does not
    with pytest.raises(AsymmetricZ):
        physical_correlators(np.array([[1e200, 3e200], [-1e200, 1e200]]), 1)


def test_z_of_the_wrong_shape_is_refused():
    with pytest.raises(AsymmetricZ, match=r"^Z must be 2x2, got \(4, 4\)$"):
        physical_correlators(np.zeros((4, 4)), 1)


def test_wick_reference_value():
    _, _, sol = _sec4_solution()
    # <a†a†aa> for the single mode: slots (a†, a†, a, a) = (1, 1, 0, 0)
    assert wick_moment(sol.Z, (1, 1, 0, 0)) == pytest.approx(2.05, abs=1e-12)


def test_wick_zero_state():
    assert wick_moment(np.zeros((2, 2)), (0, 1, 0, 1)) == 0


def test_wick_permutation_invariance(rng):
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Z = (Z + Z.T) / 2
    slots = (0, 1, 2, 3)
    ref = wick_moment(Z, slots)
    for perm in itertools.permutations(slots):
        assert wick_moment(Z, perm) == pytest.approx(ref, rel=1e-12)


def test_wick_index_validation():
    with pytest.raises(IndexOutOfRange):
        wick_moment(np.zeros((2, 2)), (0, 1, 2, 0))
    with pytest.raises(IndexOutOfRange):
        wick_moment(np.zeros((2, 2)), (0, 1, 0))


@pytest.mark.parametrize(
    "Z, slots",
    [(np.zeros((3, 2)), (0, 2, 0, 0)), (np.zeros(4), (0, 0, 0, 0))],
    ids=["3x2", "vector"],
)
def test_wick_refuses_a_correlator_that_is_not_square(Z, slots):
    # the slots are bounded by the first axis only, so numpy would raise
    # IndexError on the second
    with pytest.raises(DimensionMismatch, match="square matrix"):
        wick_moment(Z, slots)


@pytest.mark.parametrize(
    "slot",
    [0.7, -0.5, 1.0, True, np.bool_(False), "0"],
    ids=["0.7", "-0.5", "1.0", "True", "numpy-False", "string-0"],
)
def test_wick_refuses_slots_that_are_not_integers(slot):
    # int() would read 0.7 and -0.5 as slot 0 and True as slot 1
    with pytest.raises(IndexOutOfRange, match="is not an integer"):
        wick_moment(np.eye(2), (slot, 0, 0, 0))
    assert wick_moment(np.eye(2), (np.int64(1), np.uint8(0), 1, 0)) == 1


def test_fixed_point_is_stationary():
    struct, _, sol = _sec4_solution()
    times = np.linspace(0.0, 8.0, 9)
    zero = np.zeros(2)
    for C, _ in moment_steps(struct.X, struct.Y, zero, sol.Z, zero, times):
        assert np.allclose(C, sol.Z, atol=1e-12, rtol=0)


def test_vacuum_relaxation_closed_form():
    # occupation from vacuum follows n_ss (1 - exp(-2 (u - v) t)) exactly
    struct, _, sol = _sec4_solution()
    times = np.linspace(0.0, 12.0, 25)
    zero, C0 = np.zeros(2), np.zeros((2, 2))
    C, _ = map(np.array, zip(*moment_steps(struct.X, struct.Y, zero, C0, zero, times)))
    occ = C[:, 0, 1].real
    assert np.allclose(occ, 1.0 - np.exp(-times), atol=1e-12, rtol=0)


def test_distance_to_fixed_point_decay_rate():
    # every covariance component relaxes at 2 min Re(beta_j + beta_k),
    # twice the one-excitation gap for this instance
    struct, sp, sol = _sec4_solution()
    times = np.linspace(2.0, 20.0, 19)
    zero = np.zeros(2)
    steps = moment_steps(struct.X, struct.Y, zero, np.zeros((2, 2)), zero, times)
    dist = np.array([np.linalg.norm(C - sol.Z) for C, _ in steps])
    slope = fit_decay_slope(times, dist)
    gap = spectral_gap(sp)
    assert slope == pytest.approx(2.0 * gap, rel=0.05)
    # exponential envelope bound at the gap rate holds a fortiori
    assert np.all(dist <= dist[0] * np.exp(-gap * (times - times[0])) + 1e-12)


def test_unstable_growth_is_unbounded():
    struct = build_structure(unstable_sec4_model())
    times = np.linspace(0.0, 10.0, 11)
    zero = np.zeros(2)
    steps = moment_steps(struct.X, struct.Y, zero, np.zeros((2, 2)), zero, times)
    norms = np.array([np.linalg.norm(C) for C, _ in steps])
    assert np.all(np.diff(norms) > 0)
    assert norms[-1] > 50 * norms[1]


def test_closed_system_occupation_conserved():
    struct = build_structure(closed_model(omega=1.3))
    C0 = np.array([[0.0, 0.7], [0.7, 0.0]], dtype=complex)
    times = np.linspace(0.0, 20.0, 21)
    zero = np.zeros(2)
    C, _ = map(np.array, zip(*moment_steps(struct.X, struct.Y, zero, C0, zero, times)))
    occ = C[:, 0, 1].real
    assert np.abs(occ - 0.7).max() <= 1e-7
    norms = np.linalg.norm(C, axis=(1, 2))
    assert max(norms) <= 2 * norms[0] + 1e-9


def test_initial_condition_validation():
    struct, _, _ = _sec4_solution()
    zero = np.zeros(2)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetricInitial) as refusal:
        list(moment_steps(struct.X, struct.Y, zero, bad, zero, [0.0, 1.0]))
    assert isinstance(refusal.value, InputError)  # bad input, exit 2
    huge = np.array([[1e200, 3e200], [-1e200, 1e200]])  # |C0 - C0^T|_F overflows
    with pytest.raises(NonSymmetricInitial):
        list(moment_steps(struct.X, struct.Y, zero, huge, zero, [0.0, 1.0]))
    with pytest.raises(InputError):
        list(moment_steps(struct.X, struct.Y, zero, np.zeros((2, 2)), zero, [1.0, 0.5]))


@pytest.mark.parametrize(
    "C0, m0, g, name",
    [
        (np.zeros((3, 3)), np.zeros(2), np.zeros(2), "C0"),
        (np.zeros((2, 3)), np.zeros(2), np.zeros(2), "C0"),
        (np.zeros((2, 2)), np.zeros(3), np.zeros(2), "m0"),
        (np.zeros((2, 2)), np.zeros(2), np.zeros(3), "g"),
    ],
    ids=["C0-3x3", "C0-2x3", "m0-length-3", "g-length-3"],
)
def test_moments_not_the_size_of_X_are_refused(C0, m0, g, name):
    struct, _, _ = _sec4_solution()
    with pytest.raises(DimensionMismatch, match=f"^{name} must"):
        list(moment_steps(struct.X, struct.Y, g, C0, m0, [0.0, 1.0]))


def test_homogeneous_mean_decay():
    struct, _, _ = _sec4_solution()
    times = np.linspace(0.0, 6.0, 13)
    g, C0, m0 = np.zeros(2), np.zeros((2, 2)), np.array([1.0, 1.0], dtype=complex)
    _, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, times)))
    # |<a>(t)| = exp(-(u - v) t / 1) with the (0.5 + i) complex rate
    assert np.allclose(np.abs(m[:, 0]), np.exp(-0.5 * times), atol=1e-12, rtol=0)
    expected = np.exp(-(0.5 + 1.0j) * times)
    assert np.allclose(m[:, 0], expected, atol=1e-12, rtol=0)
    assert np.allclose(m[:, 1], m[:, 0].conj(), atol=1e-12, rtol=0)


def test_zero_source_zero_steady_mean():
    struct, sp, _ = _sec4_solution()
    m = steady_mean(struct.X, np.zeros(2, dtype=complex), sp)
    assert not m.any()


def test_steady_mean_solves_linear_system(rng):
    model, struct, sp = random_stable_model(rng)
    g = rng.normal(size=2 * model.n) + 1j * rng.normal(size=2 * model.n)
    mstar = steady_mean(struct.X, g, sp)
    assert np.allclose(2.0 * struct.X.T @ mstar, g, atol=1e-10)
    times = np.linspace(0.0, 30.0 / spectral_gap(sp), 8)
    C0, m0 = np.zeros((2 * model.n, 2 * model.n)), np.zeros(2 * model.n)
    _, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, times)))
    assert np.allclose(m[-1], mstar, atol=1e-8)


def test_steady_mean_requires_stability():
    struct = build_structure(closed_model())
    with pytest.raises(NotStable):
        steady_mean(struct.X, np.zeros(2, dtype=complex), rapidities(struct.X))


def test_mean_source_assembly():
    # pure force: g = (-i conj(f), i f); offsets add conj(lam) k - lam conj(l)
    f = np.array([0.2 + 0.1j])
    model = validate_model(1, [[1.0]], None, [([1.0], [0.25], 0.3 - 0.2j)], forces=f)
    g = mean_source(model)
    lam = 0.3 - 0.2j
    expected_a = -1j * f.conj() + np.conj(lam) * np.array([0.25]) - lam * np.array([1.0])
    assert np.allclose(g[:1], expected_a, atol=1e-15)
    assert np.allclose(g[1:], expected_a.conj(), atol=1e-15)


def test_mean_source_zero_model():
    assert not mean_source(sec4_model()).any()


def _closed_form(X, Y, g, C0, m0, times):
    """C(t) = Z + E^T (C0 - Z) E and m(t) = E^T (m0 - m*) + m*, E = expm(-2 X t).

    Exact for any X without resonances beta_j + beta_k = 0 or beta_j = 0,
    stable or not; Z and m* are the fixed points of the two flows.
    """
    Z = solve_schur(X, Y).Z
    mstar = np.linalg.solve(2.0 * X.T, g)
    Es = [scipy.linalg.expm(-2.0 * X * t) for t in times]
    C = np.array([Z + E.T @ (C0 - Z) @ E for E in Es])
    m = np.array([E.T @ (m0 - mstar) + mstar for E in Es])
    return C, m


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _random_symmetric(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.T) / 2


def test_unstable_trajectories_match_closed_form(rng):
    # gain 0.1-0.2 above loss on every mode of a forced three-mode chain:
    # every Re beta < 0, no pair sums to zero, and the moments grow ~e^4
    n = 3
    H = np.diag([1.0, 1.1, 0.9]) + np.diag([0.3, 0.25], 1) + np.diag([0.3, 0.25], -1)
    loss = np.array([1.0, 0.9, 1.1])
    gain = loss + np.array([0.15, 0.1, 0.2])
    channels = [(np.sqrt(loss[j]) * np.eye(n)[j], np.zeros(n)) for j in range(n)]
    channels += [(np.zeros(n), np.sqrt(gain[j]) * np.eye(n)[j]) for j in range(n)]
    model = validate_model(n, H, 0.01 * np.eye(n), channels, forces=[0.3, 0.2j, -0.1])
    struct = build_structure(model)
    assert rapidities(struct.X).beta.real.max() < 0
    g = mean_source(model)
    C0 = _random_symmetric(rng, 2 * n)
    m0 = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    times = np.linspace(0.0, 10.0, 101)
    C_ref, m_ref = _closed_form(struct.X, struct.Y, g, C0, m0, times)
    C, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, times)))
    assert _rel(C, C_ref) <= 1e-12
    assert _rel(m, m_ref) <= 1e-12


@pytest.mark.parametrize("grid", [(50.0, 60.0, 11), (0.0, 1000.0, 11)])
def test_stable_trajectories_late_and_long(rng, grid):
    # a late start and a long horizon: the jump to t0 and the step pair
    # stay exact where expm(2 X^T t) alone would overflow
    model, struct, _ = random_stable_model(rng, n=3)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    C0 = _random_symmetric(rng, 6)
    m0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    times = np.linspace(*grid)
    C_ref, m_ref = _closed_form(struct.X, struct.Y, g, C0, m0, times)
    C, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, times)))
    assert np.all(np.isfinite(C)) and np.all(np.isfinite(m))
    assert _rel(C, C_ref) <= 1e-12
    assert _rel(m, m_ref) <= 1e-12


def test_non_uniform_grid_is_bad_input():
    struct, _, _ = _sec4_solution()
    times = [0.0, 1.0, 3.0]
    g, C0 = np.zeros(2), np.zeros((2, 2))
    with pytest.raises(InputError):
        list(moment_steps(struct.X, struct.Y, g, C0, np.ones(2), times))


def test_empty_grid_is_bad_input():
    struct, _, _ = _sec4_solution()
    g, C0 = np.zeros(2), np.zeros((2, 2))
    with pytest.raises(InputError, match="non-empty"):
        list(moment_steps(struct.X, struct.Y, g, C0, np.ones(2), []))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grid_is_bad_input(bad):
    struct, _, _ = _sec4_solution()
    times = [0.0, bad]
    g, C0 = np.zeros(2), np.zeros((2, 2))
    with pytest.raises(InputError):
        list(moment_steps(struct.X, struct.Y, g, C0, np.ones(2), times))


def test_mean_single_late_time(rng):
    model, struct, _ = random_stable_model(rng, n=2)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    m0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    C0 = np.zeros((4, 4))
    _, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, [2.5])))
    _, m_ref = _closed_form(struct.X, struct.Y, g, C0, m0, [2.5])
    assert m.shape == (1, 4)
    assert _rel(m, m_ref) <= 1e-12


def test_overflowing_moments_are_refused():
    # C grows like e^t and m like e^(t/2): both leave the float range by
    # t = 2000, and the covariance is named first; a mean of 1e300 leaves it
    # by t = 40, where C is still near e^40
    struct = build_structure(unstable_sec4_model())
    g, C0 = np.zeros(2), np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only message
        with pytest.raises(NumericalError, match="^covariance overflows"):
            list(moment_steps(struct.X, struct.Y, g, C0, np.ones(2), [0.0, 1000.0, 2000.0]))
        with pytest.raises(NumericalError, match="^means overflow"):
            list(moment_steps(struct.X, struct.Y, g, C0, np.full(2, 1e300), [0.0, 40.0]))
        # means that overflow at t = 40 and a covariance that overflows near
        # t = 709: the covariance is named, as it is anywhere on the grid
        times = np.arange(0.0, 1001.0, 40.0)
        with pytest.raises(NumericalError, match="^covariance overflows"):
            list(moment_steps(struct.X, struct.Y, g, C0, np.full(2, 1e300), times))


def _stacked_loop(X, Y, g, C0, m0, times):
    """The moments as a loop that fills whole (T, 2n, 2n) and (T, 2n) arrays."""
    X, Y, g = (np.asarray(A, dtype=complex) for A in (X, Y, g))
    C0, m0 = np.asarray(C0, dtype=complex), np.asarray(m0, dtype=complex)
    times = np.asarray(times, dtype=float)
    C0 = (C0 + C0.T) / 2
    F, Q, b = _moment_step(X, Y, g, float(times[0]))
    C = np.empty((times.size,) + C0.shape, dtype=complex)
    m = np.empty((times.size, m0.size), dtype=complex)
    Ci = F.T @ C0 @ F + Q
    C[0] = (Ci + Ci.T) / 2
    m[0] = F.T @ m0 + b
    F, Q, b = _moment_step(X, Y, g, float(times[1] - times[0]))
    for i in range(1, times.size):
        Ci = F.T @ C[i - 1] @ F + Q
        C[i] = (Ci + Ci.T) / 2
        m[i] = F.T @ m[i - 1] + b
    return C, m


@pytest.mark.parametrize("case", ["forced-chain", "unstable", "mean", "no-state-C0"])
def test_moment_steps_stack_to_the_trajectory(rng, case):
    # bit for bit against the whole-array loop
    if case == "unstable":
        model = unstable_sec4_model()
    else:
        chain = dense_chain_model(rng, 4)
        forces = rng.normal(size=4) + 1j * rng.normal(size=4)
        channels = list(zip(chain.l, chain.k))
        model = validate_model(4, chain.H, chain.K, channels, forces=forces)
    struct = build_structure(model)
    two_n = 2 * model.n
    g = mean_source(model)
    C0 = np.zeros((two_n, two_n), dtype=complex)
    m0 = np.zeros(two_n, dtype=complex)
    if case == "mean":
        m0 = rng.normal(size=two_n) + 1j * rng.normal(size=two_n)
    if case == "no-state-C0":
        C0 = _random_symmetric(rng, two_n)  # <a† a> not Hermitian, say
    times = np.linspace(0.5, 8.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = list(moment_steps(struct.X, struct.Y, g, C0, m0, times))
    C_loop, m_loop = _stacked_loop(struct.X, struct.Y, g, C0, m0, times)
    C, m = np.stack([C for C, _ in steps]), np.stack([m for _, m in steps])
    assert np.array_equal(C, C_loop) and np.array_equal(m, m_loop)
    assert len({id(C) for C, _ in steps}) == times.size  # a fresh array per step


def _forced_chain(rng, n):
    """X, Y and g of conftest's dense chain with random forces."""
    chain = dense_chain_model(rng, n)
    forces = rng.normal(size=n) + 1j * rng.normal(size=n)
    model = validate_model(n, chain.H, chain.K, list(zip(chain.l, chain.k)), forces=forces)
    struct = build_structure(model)
    return struct.X, struct.Y, mean_source(model)


def _recorded_blocks(monkeypatch):
    """Every block that _moment_step exponentiates from now on."""
    blocks = []

    def recording(A):
        blocks.append(A.copy())
        return _pade_expm(A)

    monkeypatch.setattr(thirdq.ness, "_pade_expm", recording)
    return blocks


def _norm_1(A):
    return np.abs(A).sum(axis=0).max()


@pytest.mark.parametrize("theta, b", _PADE, ids=[f"deg{len(b) - 1}" for _, b in _PADE])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pade_exponential_matches_scipy_just_below_each_theta(rng, theta, b, dtype):
    A = rng.normal(size=(8, 8)).astype(dtype)
    if dtype is complex:
        A = A + 1j * rng.normal(size=(8, 8))
    A *= 0.999 * theta / _norm_1(A)
    assert _rel(_pade_expm(A), scipy.linalg.expm(A)) <= 1e-14


def test_pade_exponential_matches_scipy_on_the_blocks_of_forced_chains(rng, monkeypatch):
    blocks = _recorded_blocks(monkeypatch)
    for n in (1, 5, 20, 50):
        for h in (0.1, 10.0):
            _moment_step(*_forced_chain(rng, n), h)
    assert len(blocks) == 8
    for A in blocks:
        assert _norm_1(A) <= 1.5
        assert _rel(_pade_expm(A), scipy.linalg.expm(A)) <= 1e-14


def test_step_of_an_x_whose_rows_outweigh_its_columns(rng, monkeypatch):
    # upper triangular and far from normal: row 0 sums to about 20 and every
    # column to about 1, so the block's X^T part is bounded by |X|_inf alone
    blocks = _recorded_blocks(monkeypatch)
    m = 20
    X = np.diag(rng.uniform(0.05, 0.1, m)) + np.outer(np.eye(m)[0], np.ones(m))
    X = X + 0.01j * np.triu(rng.normal(size=(m, m)))
    assert np.abs(X).sum(axis=1).max() >= 15 * _norm_1(X)
    Y = _random_symmetric(rng, m)
    g = rng.normal(size=m) + 1j * rng.normal(size=m)
    C0 = _random_symmetric(rng, m)
    m0 = rng.normal(size=m) + 1j * rng.normal(size=m)
    times = np.linspace(0.0, 4.0, 9)
    C_ref, m_ref = _closed_form(X, Y, g, C0, m0, times)
    C, mean = map(np.array, zip(*moment_steps(X, Y, g, C0, m0, times)))
    assert _rel(C, C_ref) <= 1e-12
    assert _rel(mean, m_ref) <= 1e-12
    assert max(map(_norm_1, blocks)) <= 1.5


@pytest.mark.parametrize("n", [5, 20, 50])
def test_step_keeps_the_steady_state_fixed(rng, n):
    X, Y, g = _forced_chain(rng, n)
    spectrum = rapidities(X)
    Z = solve(X, Y, spectrum).Z
    mstar = steady_mean(X, g, spectrum)
    for h in (0.01, 0.1, 1.0, 10.0):
        F, Q, b = _moment_step(X, Y, g, h)
        assert np.linalg.norm(F.T @ Z @ F + Q - Z) <= 1e-13 * np.linalg.norm(Z)
        assert np.linalg.norm(F.T @ mstar + b - mstar) <= 1e-13 * np.linalg.norm(mstar)


def test_means_scale_with_the_source_and_initial_mean(rng, monkeypatch):
    # a source of 2^600 times the chain's must not enter the exponential's
    # scaling: the means scale exactly and the covariance does not move
    blocks = _recorded_blocks(monkeypatch)
    X, Y, g = _forced_chain(rng, 5)
    C0 = np.zeros((10, 10))
    m0 = rng.normal(size=10) + 1j * rng.normal(size=10)
    times = np.linspace(0.0, 10.0, 11)
    big = 2.0**600
    C, mean = map(np.array, zip(*moment_steps(X, Y, g, C0, m0, times)))
    C_big, mean_big = map(np.array, zip(*moment_steps(X, Y, big * g, C0, big * m0, times)))
    assert _rel(mean_big / big, mean) <= 1e-14
    assert _rel(C_big, C) <= 1e-14
    assert max(map(_norm_1, blocks)) <= 1.5


def _ep5_model(gain=0.0):
    """H = 2g S_x of spin 2 and loss 1 - 2g m_j on mode m_j = 2..-2.

    The a-block of X is (1 + 2g (i S_x - S_z)) / 2 up to sign, a single
    Jordan block at beta = 1/2; the same ``gain`` on every mode shifts it to
    beta = (1 - gain) / 2.
    """
    n, g = 5, 0.2
    m = np.arange(2, -3, -1)
    off = np.sqrt(6 - m[1:] * (m[1:] + 1)) / 2  # <m + 1|S_x|m>
    S_x = np.diag(off, 1) + np.diag(off, -1)
    loss = np.sqrt(1 - 2 * g * m)
    channels = [(loss[j] * np.eye(n)[j], np.zeros(n)) for j in range(n)]
    if gain:
        channels += [(np.zeros(n), np.sqrt(gain) * np.eye(n)[j]) for j in range(n)]
    forces = [0.3, 0.2j, -0.1, 0.1, 0.05j]
    return validate_model(n, 2 * g * S_x, None, channels, forces=forces)


def _csv_table(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, table


def test_dynamics_at_exceptional_point_of_order_five(tmp_path, capsys, rng):
    # no eigenbasis of X exists there, but the propagator is exact
    model = _ep5_model()
    n = model.n
    struct = build_structure(model)
    with pytest.raises(DefectiveX):
        require_diagonalizable(rapidities(struct.X).cond_P)

    # moments a state can have: <a† a> Hermitian, <a† a†> = conj(<a a>), and
    # <a† a> above |<a a>| keeps the matrix <b_i† b_j> positive semidefinite
    A = _random_symmetric(rng, n)
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    N = B @ B.conj().T + np.linalg.norm(A, 2) * np.eye(n)
    C0 = np.block([[A, N], [N.T, A.conj()]])
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    m0 = np.concatenate([a, a.conj()])

    def pairs(v):
        return [[float(z.real), float(z.imag)] for z in v]

    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps({"C0": [pairs(row) for row in C0], "m0": pairs(m0)}))
    path = write_model(tmp_path, model_to_document(model))
    argv = ["dynamics", "--model", path, "--t1", "10", "--steps", "21"]
    assert main(argv + ["--initial", str(initial)]) == 0
    header, table = _csv_table(capsys.readouterr().out)

    def column(name):
        return table[:, header.index(name)]

    times = column("t")
    C_ref, m_ref = _closed_form(struct.X, struct.Y, mean_source(model), C0, m0, times)
    occ = np.stack([column(f"occ_{j + 1}") for j in range(n)], axis=1)
    aa = np.stack(
        [
            column(f"re_aa_{j + 1}_{k + 1}") + 1j * column(f"im_aa_{j + 1}_{k + 1}")
            for j in range(n)
            for k in range(j, n)
        ],
        axis=1,
    )
    means = np.stack(
        [
            column(f"re_mean_a_{j + 1}") + 1j * column(f"im_mean_a_{j + 1}")
            for j in range(n)
        ],
        axis=1,
    )
    upper = np.triu_indices(n)
    assert _rel(occ, C_ref[:, range(n), range(n, 2 * n)].real) <= 1e-12
    assert _rel(aa, C_ref[:, upper[0], upper[1]]) <= 1e-12
    assert _rel(means, m_ref[:, :n]) <= 1e-12


def test_ness_at_exceptional_point_of_order_five(tmp_path, capsys):
    # cond(P) is refused by the eigenbasis route, so the Schur route solves
    # for Z and its residual certifies it; at beta = 0.3 the covariance
    # relaxes onto it from the vacuum like e^-1.2t t^8, below 1e-30 by t = 100
    model = _ep5_model(gain=0.4)
    n = model.n
    path = write_model(tmp_path, model_to_document(model))
    assert main(["ness", "--model", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["method"] == "SchurBartelsStewart"
    assert results["residual"] <= 1e-9
    Z = np.array(results["Z"]) @ [1.0, 1j]
    assert np.abs(Z).max() > 0.1

    argv = ["dynamics", "--model", path, "--t1", "100", "--steps", "2"]
    assert main(argv) == 0
    header, table = _csv_table(capsys.readouterr().out)
    late = dict(zip(header, table[-1]))
    occ = np.array([late[f"occ_{j + 1}"] for j in range(n)])
    upper = np.triu_indices(n)
    aa = np.array(
        [
            late[f"re_aa_{j + 1}_{k + 1}"] + 1j * late[f"im_aa_{j + 1}_{k + 1}"]
            for j, k in zip(*upper)
        ]
    )
    scale = np.abs(Z).max()
    assert np.abs(occ - Z[range(n), range(n, 2 * n)].real).max() <= 1e-12 * scale
    assert np.abs(aa - Z[upper]).max() <= 1e-12 * scale
