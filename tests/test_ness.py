import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from thirdq import (
    AsymmetricZ,
    DefectiveX,
    IndexOutOfRange,
    InputError,
    NonSymmetricInitial,
    NotStable,
    NumericalError,
    build_structure,
    mean_source,
    moment_trajectory,
    physical_correlators,
    rapidities,
    solve,
    solve_schur,
    spectral_gap,
    steady_mean,
    validate_model,
    wick_moment,
)
from thirdq.cli import main, model_to_document

from conftest import (
    closed_model,
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


def test_fixed_point_is_stationary():
    struct, _, sol = _sec4_solution()
    times = np.linspace(0.0, 8.0, 9)
    traj = moment_trajectory(struct.X, struct.Y, None, sol.Z, None, times)
    for C in traj.C:
        assert np.allclose(C, sol.Z, atol=1e-12, rtol=0)


def test_vacuum_relaxation_closed_form():
    # occupation from vacuum follows n_ss (1 - exp(-2 (u - v) t)) exactly
    struct, _, sol = _sec4_solution()
    times = np.linspace(0.0, 12.0, 25)
    traj = moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), None, times)
    occ = traj.C[:, 0, 1].real
    assert np.allclose(occ, 1.0 - np.exp(-times), atol=1e-12, rtol=0)


def test_distance_to_fixed_point_decay_rate():
    # every covariance component relaxes at 2 min Re(beta_j + beta_k),
    # twice the one-excitation gap for this instance
    struct, sp, sol = _sec4_solution()
    times = np.linspace(2.0, 20.0, 19)
    traj = moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), None, times)
    dist = np.array([np.linalg.norm(C - sol.Z) for C in traj.C])
    slope = fit_decay_slope(times, dist)
    gap = spectral_gap(sp)
    assert slope == pytest.approx(2.0 * gap, rel=0.05)
    # exponential envelope bound at the gap rate holds a fortiori
    assert np.all(dist <= dist[0] * np.exp(-gap * (times - times[0])) + 1e-12)


def test_unstable_growth_is_unbounded():
    struct = build_structure(unstable_sec4_model())
    times = np.linspace(0.0, 10.0, 11)
    traj = moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), None, times)
    norms = np.array([np.linalg.norm(C) for C in traj.C])
    assert np.all(np.diff(norms) > 0)
    assert norms[-1] > 50 * norms[1]


def test_closed_system_occupation_conserved():
    struct = build_structure(closed_model(omega=1.3))
    C0 = np.array([[0.0, 0.7], [0.7, 0.0]], dtype=complex)
    times = np.linspace(0.0, 20.0, 21)
    traj = moment_trajectory(struct.X, struct.Y, None, C0, None, times)
    occ = traj.C[:, 0, 1].real
    assert np.abs(occ - 0.7).max() <= 1e-7
    norms = [np.linalg.norm(C) for C in traj.C]
    assert max(norms) <= 2 * norms[0] + 1e-9


def test_initial_condition_validation():
    struct, _, _ = _sec4_solution()
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetricInitial):
        moment_trajectory(struct.X, struct.Y, None, bad, None, [0.0, 1.0])
    with pytest.raises(InputError):
        moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), None, [1.0, 0.5])


def test_homogeneous_mean_decay():
    struct, _, _ = _sec4_solution()
    times = np.linspace(0.0, 6.0, 13)
    m0 = np.array([1.0, 1.0], dtype=complex)
    m = moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), m0, times).m
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
    C0 = np.zeros((2 * model.n, 2 * model.n))
    m = moment_trajectory(struct.X, struct.Y, g, C0, None, times).m
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
    traj = moment_trajectory(struct.X, struct.Y, g, C0, m0, times)
    C, m = traj.C, traj.m
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
    traj = moment_trajectory(struct.X, struct.Y, g, C0, m0, times)
    C, m = traj.C, traj.m
    assert np.all(np.isfinite(C)) and np.all(np.isfinite(m))
    assert _rel(C, C_ref) <= 1e-12
    assert _rel(m, m_ref) <= 1e-12


def test_non_uniform_grid_is_bad_input():
    struct, _, _ = _sec4_solution()
    times = [0.0, 1.0, 3.0]
    with pytest.raises(InputError):
        moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), np.ones(2), times)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grid_is_bad_input(bad):
    struct, _, _ = _sec4_solution()
    times = [0.0, bad]
    with pytest.raises(InputError):
        moment_trajectory(struct.X, struct.Y, None, np.zeros((2, 2)), np.ones(2), times)


def test_mean_single_late_time(rng):
    model, struct, _ = random_stable_model(rng, n=2)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    m0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = moment_trajectory(struct.X, struct.Y, g, np.zeros((4, 4)), m0, [2.5]).m
    _, m_ref = _closed_form(struct.X, struct.Y, g, np.zeros((4, 4)), m0, [2.5])
    assert m.shape == (1, 4)
    assert _rel(m, m_ref) <= 1e-12


def test_overflowing_moments_are_refused():
    # C grows like e^t and m like e^(t/2): both leave the float range by
    # t = 2000, and the covariance is named first; a mean of 1e300 leaves it
    # by t = 40, where C is still near e^40
    struct = build_structure(unstable_sec4_model())
    C0 = np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only message
        with pytest.raises(NumericalError, match="^covariance overflows"):
            moment_trajectory(struct.X, struct.Y, None, C0, np.ones(2), [0.0, 1000.0, 2000.0])
        with pytest.raises(NumericalError, match="^means overflow"):
            moment_trajectory(struct.X, struct.Y, None, C0, np.full(2, 1e300), [0.0, 40.0])


def test_dynamics_at_exceptional_point_of_order_five(tmp_path, capsys, rng):
    # H = 2g S_x of spin 2 and loss 1 - 2g m_j on mode m_j = 2..-2: the a-block
    # of X is (1 + 2g (i S_x - S_z)) / 2 up to sign, a single Jordan block
    # at beta = 1/2, so eig cannot diagonalize X but the propagator is exact
    n, g = 5, 0.2
    m = np.arange(2, -3, -1)
    off = np.sqrt(6 - m[1:] * (m[1:] + 1)) / 2  # <m + 1|S_x|m>
    S_x = np.diag(off, 1) + np.diag(off, -1)
    loss = np.sqrt(1 - 2 * g * m)
    channels = [(loss[j] * np.eye(n)[j], np.zeros(n)) for j in range(n)]
    forces = [0.3, 0.2j, -0.1, 0.1, 0.05j]
    model = validate_model(n, 2 * g * S_x, None, channels, forces=forces)
    struct = build_structure(model)
    with pytest.raises(DefectiveX):
        rapidities(struct.X)

    # moments a state can have: <a† a> Hermitian, <a† a†> = conj(<a a>)
    A = _random_symmetric(rng, n)
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    N = (B + B.conj().T) / 2
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
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

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
