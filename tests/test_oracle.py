import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from thirdq import (
    DegenerateZeroEigenvalue,
    DimensionCap,
    DimensionMismatch,
    InputError,
    Liouvillean,
    NumericalError,
    TruncationInsufficient,
    build_fock_operators,
    build_liouvillean_matrix,
    build_structure,
    mean_source,
    moment_steps,
    oracle_evolve,
    oracle_spectrum,
    oracle_steady_state,
    physical_correlators,
    rapidities,
    solve,
    steady_mean,
    vacuum_state,
    validate_model,
)
import thirdq.oracle
from thirdq.oracle import ARNOLDI_NCV, KRYLOV_TOL, _krylov_evolve, _slow_modes

from conftest import (
    arpack_tail_model,
    closed_model,
    dense_ladders,
    multiset_max_delta,
    normal_covariance,
    random_model,
    sec4_model,
    two_mode_model,
)


def test_single_mode_ladder_matrix():
    ops = build_fock_operators(1, 3)
    a = ops.a[0].toarray()
    assert np.array_equal(a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
    assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]), atol=1e-15, rtol=0)


def test_two_mode_tensor_structure():
    ops = build_fock_operators(2, 2)
    prod = (ops.a[0] @ ops.a[1]).toarray()
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0  # |11> -> |00>
    assert np.array_equal(prod, expected)


def test_truncated_commutator_localized_at_top_level():
    ops = build_fock_operators(1, 6)
    a = ops.a[0]
    defect = (a @ a.conj().T - a.conj().T @ a) - np.eye(6)
    assert np.abs(defect[:-1, :-1]).max() <= 1e-14
    assert defect[-1, -1] == pytest.approx(-6.0)


def test_hand_built_decay_generator():
    # H = 0, single loss channel, two levels: written out by hand
    model = validate_model(1, [[0.0]], None, [([1.0], [0.0])])
    lio = build_liouvillean_matrix(model, 2)
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 2.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -2.0],
        ],
        dtype=complex,
    )
    assert np.array_equal(lio.L.toarray(), expected)
    # the excited-state population mode decays at rate 2
    assert sorted(np.linalg.eigvals(lio.L.toarray()).real)[0] == pytest.approx(-2.0)


def test_trace_preservation_random_models(rng):
    for _ in range(25):
        model = random_model(rng, n=int(rng.integers(1, 3)))
        lio = build_liouvillean_matrix(model, 4)
        assert lio.trace_preservation_residual() <= 1e-10


def test_reference_steady_state_moments():
    lio = build_liouvillean_matrix(sec4_model(), 30)
    ss = oracle_steady_state(lio)
    assert abs(ss.eigenvalue) < 1e-8
    assert ss.occupations[0] == pytest.approx(1.0, abs=1e-6)
    assert ss.pair_aa[0, 0] == pytest.approx(-0.1 + 0.2j, abs=1e-6)
    assert ss.wick4[0] == pytest.approx(2.05, abs=1e-5)
    assert ss.top_populations[0] < 1e-8
    # density matrix sanity
    assert np.linalg.norm(ss.rho - ss.rho.conj().T) <= 1e-9
    assert np.linalg.eigvalsh(ss.rho).min() >= -1e-8


def test_pure_decay_dark_state():
    model = validate_model(1, [[1.0]], None, [([1.0], [0.0])])
    lio = build_liouvillean_matrix(model, 8)
    ss = oracle_steady_state(lio)
    vac = np.zeros((8, 8))
    vac[0, 0] = 1.0
    assert np.allclose(ss.rho, vac, atol=1e-10)
    assert abs(ss.pair_aa[0, 0]) < 1e-10
    assert abs(ss.occupations[0]) < 1e-10


def test_reference_spectrum_overlap():
    lio = build_liouvillean_matrix(sec4_model(), 30)
    got = oracle_spectrum(lio, 6)
    expected = np.array([0.0, -0.5 - 1j, -0.5 + 1j, -1.0, -1 - 2j, -1 + 2j])
    assert multiset_max_delta(got, expected) <= 1e-4


def test_closed_system_spectrum_is_imaginary():
    lio = build_liouvillean_matrix(closed_model(), 6)
    w = oracle_spectrum(lio, 36)
    assert np.abs(w.real).max() <= 1e-10


def test_zero_model_spectrum_and_degeneracy():
    model = validate_model(1, [[0.0]], None, [])
    lio = build_liouvillean_matrix(model, 4)
    assert np.abs(oracle_spectrum(lio, 16)).max() <= 1e-12
    with pytest.raises(DegenerateZeroEigenvalue):
        oracle_steady_state(lio)


def test_null_vector_of_vanishing_trace_is_refused(monkeypatch):
    # the zero mode's Ritz vector with its trace projected out: it carries
    # no state, however close its eigenvalue is to zero
    slow_spectrum = thirdq.oracle._slow_spectrum

    def traceless(lio, count, steady):
        w, (lam, x) = slow_spectrum(lio, count, steady)
        r = lio.R[[-1]].toarray().ravel()  # tr rho = r . x
        return w, (lam, x - (r @ x) / (r @ r.conj()) * r.conj())

    monkeypatch.setattr(thirdq.oracle, "_slow_spectrum", traceless)
    with pytest.raises(DegenerateZeroEigenvalue, match="null vector has vanishing trace"):
        oracle_steady_state(build_liouvillean_matrix(sec4_model(), 8))


def test_truncation_gate_fires():
    with pytest.raises(TruncationInsufficient):
        oracle_steady_state(build_liouvillean_matrix(sec4_model(), 4))


def test_dimension_caps():
    with pytest.raises(DimensionCap):
        build_fock_operators(2, 50)
    with pytest.raises(InputError):
        build_fock_operators(1, 1)
    # explicit memcap overrides the default
    ops = build_fock_operators(1, 50, memcap=10_000_000)
    assert ops.dim == 50


def test_evolution_reference_trajectory():
    model = sec4_model()
    lio = build_liouvillean_matrix(model, 30)
    times = np.linspace(0.0, 8.0, 17)
    traj = oracle_evolve(lio, vacuum_state(lio), times)
    occ = traj.cov[:, 0, 1].real
    assert np.abs(occ - (1.0 - np.exp(-times))).max() <= 1e-5
    assert np.abs(traj.trace - 1.0).max() <= 1e-10
    # t = 0 returns the input moments exactly
    assert np.abs(traj.cov[0]).max() <= 1e-12
    assert np.abs(traj.means[0]).max() <= 1e-12


def test_evolution_matches_analytic_covariance():
    model = sec4_model()
    struct = build_structure(model)
    lio = build_liouvillean_matrix(model, 30)
    times = np.linspace(0.0, 10.0, 21)
    otraj = oracle_evolve(lio, vacuum_state(lio), times)
    zero, C0 = np.zeros(2), np.zeros((2, 2))
    C, _ = map(np.array, zip(*moment_steps(struct.X, struct.Y, zero, C0, zero, times)))
    assert np.abs(otraj.cov - C).max() <= 1e-5


def test_cutoff_convergence():
    moments = {}
    for cutoff in (30, 60):
        lio = build_liouvillean_matrix(sec4_model(), cutoff, memcap=13_000_000)
        ss = oracle_steady_state(lio)
        moments[cutoff] = np.array(
            [ss.occupations[0], ss.pair_aa[0, 0], ss.pair_adad[0, 0]]
        )
    assert np.abs(moments[30] - moments[60]).max() < 1e-6


def test_two_mode_steady_state_against_analytic():
    model = two_mode_model()
    struct = build_structure(model)
    sp = rapidities(struct.X)
    corr = physical_correlators(solve(struct.X, struct.Y, sp).Z, model.n)
    lio = build_liouvillean_matrix(model, 6)
    ss = oracle_steady_state(lio, top_level_tol=1e-3)
    assert np.abs(corr.pair_aa - ss.pair_aa).max() <= 1e-3
    assert np.abs(corr.normal_ad_a - ss.normal_ad_a).max() <= 1e-3
    assert np.abs(corr.occupations - ss.occupations).max() <= 1e-3


def test_exceptional_point_matches_oracle():
    # rapidity coalescence (2|K| = omega): Schur-route steady state still
    # agrees with the brute-force null vector
    model = validate_model(1, [[1.0]], [[0.5]], [([1.0], [0.0])])
    struct = build_structure(model)
    sp = rapidities(struct.X)
    corr = physical_correlators(solve(struct.X, struct.Y, sp).Z, 1)
    ss = oracle_steady_state(build_liouvillean_matrix(model, 30))
    assert abs(corr.occupations[0] - ss.occupations[0]) <= 1e-5
    assert abs(corr.pair_aa[0, 0] - ss.pair_aa[0, 0]) <= 1e-5


def test_mean_dynamics_validated_against_oracle():
    # forces and a channel offset drive nonzero first moments; the assembled
    # source must reproduce the brute-force means and steady displacement
    model = validate_model(
        1,
        [[1.0]],
        None,
        [([1.0], [0.25], 0.1 - 0.05j), ([0.0], [np.sqrt(0.4375)])],
        forces=np.array([0.2 + 0.1j]),
    )
    struct = build_structure(model)
    g = mean_source(model)
    times = np.linspace(0.0, 12.0, 13)
    lio = build_liouvillean_matrix(model, 30)
    otraj = oracle_evolve(lio, vacuum_state(lio), times)
    C0, m0 = np.zeros((2, 2)), np.zeros(2)
    _, m = map(np.array, zip(*moment_steps(struct.X, struct.Y, g, C0, m0, times)))
    assert np.abs(m - otraj.means).max() <= 1e-6
    # steady displacement against the brute-force steady state
    sp = rapidities(struct.X)
    mstar = steady_mean(struct.X, g, sp)
    ss = oracle_steady_state(lio)
    a = dense_ladders(1, 30)
    oracle_mean = np.trace(a[0] @ ss.rho)
    assert abs(mstar[0] - oracle_mean) <= 1e-6
    assert abs(mstar[1] - np.conj(oracle_mean)) <= 1e-6
    # second moments acquire the mean-field contribution on top of Z
    Z = solve(struct.X, struct.Y, sp).Z
    raw = Z + np.outer(mstar, mstar)
    ss_cov = normal_covariance(a, ss.rho)
    assert np.abs(raw - ss_cov).max() <= 1e-5


def _with_linear_terms(rng, model):
    """The same model with random forces and channel offsets added."""
    n = model.n
    channels = [
        (l, k, complex(*(0.2 * rng.normal(size=2)))) for l, k in zip(model.l, model.k)
    ]
    forces = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return validate_model(n, model.H, model.K, channels, forces=forces)


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_real_form_spectrum_matches_dense_eig(rng, n, linear):
    for _ in range(3):
        model = random_model(rng, n=n)
        if linear:
            model = _with_linear_terms(rng, model)
        lio = build_liouvillean_matrix(model, 4)
        assert lio.M.dtype == np.float64
        got = oracle_spectrum(lio, lio.dim**2)
        ref = np.linalg.eigvals(lio.L.toarray())
        assert multiset_max_delta(got, ref) <= 1e-10 * np.abs(ref).max()


def _fold(w):
    """Each eigenvalue as Re + i|Im|: the two halves of a conjugate pair of a
    real matrix fold onto one point, so a cut through a pair does not count."""
    w = np.asarray(w)
    return w.real + 1j * np.abs(w.imag)


def _dense_slowest(lio, k):
    """The k rightmost eigenvalues of M, each block solved dense."""
    w = np.concatenate(
        [np.linalg.eigvals(lio.M[idx][:, idx].toarray()) for idx in lio.blocks]
    )
    return w[np.argsort(-w.real, kind="stable")[:k]]


def _dense_steady_rho(lio):
    """The unit-trace null vector of the dense block of the identity."""
    idx = next(idx for idx in lio.blocks if idx[0] == 0)
    w, V = np.linalg.eig(lio.M[idx][:, idx].toarray())
    x = np.zeros(lio.dim**2, dtype=complex)
    x[idx] = V[:, np.argmin(np.abs(w))]
    rho = (lio.U @ x).reshape((lio.dim, lio.dim), order="F")
    return rho / np.trace(rho)


def _forced_model():
    # forces break superparity: M is one block
    return validate_model(
        1,
        [[1.0]],
        None,
        [([1.0], [0.25], 0.1 - 0.05j), ([0.0], [np.sqrt(0.4375)])],
        forces=np.array([0.2 + 0.1j]),
    )


@pytest.mark.parametrize(
    "model,cutoff,k,blocks",
    [
        (sec4_model(), 30, 6, 2),
        (two_mode_model(), 6, 5, 11),
        (_forced_model(), 30, 6, 1),
        # ARPACK's set for the identity's block misses two of its five
        # rightmost, but they are not among the five slowest over all blocks
        (arpack_tail_model(), 6, 5, 2),
    ],
)
def test_arnoldi_slow_modes_match_dense_blocks(model, cutoff, k, blocks):
    lio = build_liouvillean_matrix(model, cutoff)
    assert len(lio.blocks) == blocks
    assert max(idx.size for idx in lio.blocks) > ARNOLDI_NCV  # ARPACK runs
    ref = _dense_slowest(lio, k)
    tol = 1e-10 * np.abs(ref).max()
    assert multiset_max_delta(_fold(oracle_spectrum(lio, k)), _fold(ref)) <= tol
    ss = oracle_steady_state(lio, top_level_tol=1e-3, count=k)
    assert multiset_max_delta(_fold(ss.spectrum), _fold(ref)) <= tol
    assert np.abs(ss.rho - _dense_steady_rho(lio)).max() <= 1e-10


@pytest.mark.parametrize(
    "width,k",
    # dense, then ARPACK, one column either side of each threshold
    [(ARNOLDI_NCV, 6), (ARNOLDI_NCV + 1, 6), (40, 39), (40, 38)],
)
def test_slow_modes_agree_across_the_dense_arnoldi_threshold(rng, width, k):
    B = scipy.sparse.csc_matrix(rng.normal(size=(width, width)))
    dense = np.linalg.eigvals(B.toarray())
    ref = dense[np.argsort(-dense.real)[:k]]
    tol = 1e-10 * np.abs(ref).max()
    w, _ = _slow_modes(B, k, vectors=False)
    assert multiset_max_delta(_fold(w), _fold(ref)) <= tol
    w, V = _slow_modes(B, k, vectors=True)
    assert multiset_max_delta(_fold(w), _fold(ref)) <= tol
    assert np.abs(B @ V - V * w).max() <= tol


def test_evolution_matches_matrix_exponential(rng):
    model = validate_model(
        1,
        [[1.0]],
        None,
        [([1.0], [0.25], 0.1 - 0.05j), ([0.0], [np.sqrt(0.4375)])],
        forces=np.array([0.2 + 0.1j]),
    )
    lio = build_liouvillean_matrix(model, 8)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    times = np.linspace(0.5, 3.5, 7)
    traj = oracle_evolve(lio, rho0, times)
    a = dense_ladders(1, 8)
    for i, t in enumerate(times):
        vec_t = scipy.linalg.expm(lio.L.toarray() * t) @ rho0.ravel(order="F")
        rho_t = vec_t.reshape((8, 8), order="F")
        assert np.abs(traj.cov[i] - normal_covariance(a, rho_t)).max() <= 1e-10
        assert abs(traj.means[i, 0] - np.trace(a[0] @ rho_t)) <= 1e-10
        assert abs(traj.trace[i] - np.trace(rho_t)) <= 1e-10


@pytest.mark.parametrize(
    "model,cutoff,blocks,spread,touched",
    [
        (sec4_model(), 8, 2, 8, 2),
        (two_mode_model(), 4, 7, 8, 7),
        (two_mode_model(), 4, 7, 1, 2),
    ],
)
def test_evolution_on_touched_blocks_matches_matrix_exponential(
    rng, model, cutoff, blocks, spread, touched
):
    # no linear terms: M splits into its even and odd superparity blocks, and
    # two_mode_model conserves the excitation number N, which splits it further
    lio = build_liouvillean_matrix(model, cutoff)
    assert len(lio.blocks) == blocks
    A = rng.normal(size=(lio.dim, lio.dim)) + 1j * rng.normal(size=(lio.dim, lio.dim))
    rho0 = A @ A.conj().T
    # keep the coherences between Fock states whose N differ by at most spread
    N = sum(np.meshgrid(*[np.arange(cutoff)] * model.n, indexing="ij")).ravel()
    rho0 *= np.abs(N[:, None] - N[None, :]) <= spread
    rho0 /= np.trace(rho0)
    x0 = lio.U.conj().T @ rho0.ravel(order="F")
    assert sum(x0[idx].any() for idx in lio.blocks) == touched
    times = np.linspace(0.0, 3.0, 7)
    traj = oracle_evolve(lio, rho0, times)
    a = dense_ladders(model.n, cutoff)
    L = lio.L.toarray()
    for i, t in enumerate(times):
        vec_t = scipy.linalg.expm(L * t) @ rho0.ravel(order="F")
        rho_t = vec_t.reshape((lio.dim, lio.dim), order="F")
        assert np.abs(traj.cov[i] - normal_covariance(a, rho_t)).max() <= 1e-10
        means = [np.trace(m @ rho_t) for m in a + [m.conj().T for m in a]]
        assert np.abs(traj.means[i] - means).max() <= 1e-10
        assert abs(traj.trace[i] - np.trace(rho_t)) <= 1e-10
    # rho0 touches an odd block, whose coordinates carry <a>
    assert np.abs(traj.means).max() > 1e-3
    # the vacuum touches only the even block; the odd ones stay exactly zero
    assert np.all(oracle_evolve(lio, vacuum_state(lio), times).means == 0)


def test_evolution_refuses_non_uniform_grid():
    lio = build_liouvillean_matrix(sec4_model(), 6)
    with pytest.raises(InputError):
        oracle_evolve(lio, vacuum_state(lio), [0.0, 0.1, 0.3])


def test_evolution_refuses_misshapen_initial_state():
    lio = build_liouvillean_matrix(sec4_model(), 6)
    with pytest.raises(DimensionMismatch):
        oracle_evolve(lio, np.eye(5) / 5, [0.0, 0.1])


def _forced_model():
    return validate_model(
        1,
        [[1.0]],
        None,
        [([1.0], [0.25], 0.1 - 0.05j), ([0.0], [np.sqrt(0.4375)])],
        forces=np.array([0.2 + 0.1j]),
    )


def _random_state(rng, dim, hermitian=True):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = A @ A.conj().T if hermitian else A
    return rho0 / np.trace(rho0)


@pytest.mark.parametrize(
    "model,cutoff,state,times",
    [
        # |M|_1 about 190: many Krylov steps in every grid interval; by t = 20
        # the state is near steady, where Expokit's absolute breakdown
        # threshold (1e-7) would cut the Krylov basis short
        (sec4_model(), 30, "vacuum", np.linspace(0.0, 20.0, 3)),
        (two_mode_model(), 6, "vacuum", np.linspace(0.0, 4.0, 5)),
        # forces and a channel offset: one block, odd moments nonzero
        (_forced_model(), 8, "hermitian", np.linspace(0.0, 3.0, 7)),
        # a non-Hermitian rho0 has imaginary coordinates, evolved apart
        (_forced_model(), 8, "non-hermitian", np.linspace(0.0, 3.0, 7)),
        # the first grid time is reached from t = 0
        (sec4_model(), 8, "hermitian", np.linspace(2.0, 20.0, 7)),
    ],
    ids=["sec4-cutoff30", "two-mode-cutoff6", "forced", "non-hermitian", "from-t2"],
)
def test_krylov_stepper_matches_dense_exponential(rng, model, cutoff, state, times):
    lio = build_liouvillean_matrix(model, cutoff)
    if state == "vacuum":
        rho0 = vacuum_state(lio)
    else:
        rho0 = _random_state(rng, lio.dim, hermitian=state == "hermitian")
    traj = oracle_evolve(lio, rho0, times)
    # dense expm of M on the blocks rho0 touches; M couples no two blocks
    x0 = lio.U.conj().T @ rho0.ravel(order="F")
    idx = np.concatenate([idx for idx in lio.blocks if x0[idx].any()])
    B = lio.M[idx][:, idx].toarray()
    a = dense_ladders(model.n, cutoff)
    for i, t in enumerate(times):
        x = np.zeros(x0.size, dtype=complex)
        x[idx] = scipy.linalg.expm(B * t) @ x0[idx]
        rho_t = (lio.U @ x).reshape((lio.dim, lio.dim), order="F")
        means = [np.trace(m @ rho_t) for m in a + [m.conj().T for m in a]]
        assert np.abs(traj.cov[i] - normal_covariance(a, rho_t)).max() <= 1e-12
        assert np.abs(traj.means[i] - means).max() <= 1e-12
        assert abs(traj.trace[i] - np.trace(rho_t)) <= 1e-12


def test_krylov_stepper_holds_its_error_budget_near_the_steady_state():
    # a breakdown threshold relative to |B| (KRYLOV_TOL |B|_inf) instead of to
    # the error budget lets the error grow 100 times past it by t = 100
    lio = build_liouvillean_matrix(sec4_model(), 30)
    x0 = lio.U.conj().T @ vacuum_state(lio).ravel(order="F")
    idx = next(idx for idx in lio.blocks if x0[idx].any())
    B = lio.M[idx][:, idx]
    times = np.array([0.0, 50.0, 100.0])
    xs = _krylov_evolve(B.tocsr(), x0[idx].real, times)
    for x, t in zip(xs, times):
        ref = scipy.linalg.expm(B.toarray() * t) @ x0[idx].real
        assert np.linalg.norm(x - ref) <= 1.2 * KRYLOV_TOL * t * np.linalg.norm(x0)


@pytest.mark.parametrize(
    "times",
    [[1.0, 0.0], [-1.0, 0.0], [0.0, np.nan], [0.0, np.inf], [np.nan, np.nan], [0.0]],
    ids=["decreasing", "negative", "nan", "inf", "all-nan", "one-time"],
)
def test_evolution_refuses_grid_it_cannot_evolve(times):
    lio = build_liouvillean_matrix(sec4_model(), 8)
    with pytest.raises(InputError):
        oracle_evolve(lio, vacuum_state(lio), times)


def test_evolution_on_constant_grid_holds_the_state():
    lio = build_liouvillean_matrix(sec4_model(), 8)
    rho0 = vacuum_state(lio)
    constant = oracle_evolve(lio, rho0, [2.0, 2.0])
    ramp = oracle_evolve(lio, rho0, [0.0, 2.0])
    assert np.array_equal(constant.cov[0], constant.cov[1])
    assert np.abs(constant.cov - ramp.cov[1]).max() <= 1e-12
    assert np.abs(constant.trace - 1.0).max() <= 1e-12


def test_evolution_to_an_overflowing_time_is_a_numerical_error():
    # the state at t = 1e308 leaves the float range: refused, not returned
    lio = build_liouvillean_matrix(sec4_model(), 8)
    with pytest.raises(NumericalError, match="stalled at t = "):
        oracle_evolve(lio, vacuum_state(lio), [0.0, 1e308])


@pytest.mark.parametrize("cutoff,t_end", [(8, 1e15), (30, 1e20)])
def test_evolution_that_loses_the_trace_is_a_numerical_error(cutoff, t_end):
    # M's eigenvalue nearest zero is rounding-sized (1e-15 to 1e-13), not 0:
    # by these times it has moved the trace to 1.2 (cutoff 8) and 0 (cutoff 30)
    lio = build_liouvillean_matrix(sec4_model(), cutoff)
    with pytest.raises(NumericalError, match="does not preserve the trace"):
        oracle_evolve(lio, vacuum_state(lio), [0.0, t_end])


def test_krylov_stepper_without_tolerance_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(thirdq.oracle, "KRYLOV_TOL", 0.0)
    lio = build_liouvillean_matrix(sec4_model(), 8)
    with pytest.raises(NumericalError, match="step 0.000e\\+00 after 0 rejections"):
        oracle_evolve(lio, vacuum_state(lio), [0.0, 1.0])


def test_generator_breaking_hermiticity_is_refused():
    ops = build_fock_operators(1, 3)
    with pytest.raises(NumericalError):
        Liouvillean(ops, 1j * scipy.sparse.identity(9, dtype=complex))


def _dense_generator(model, cutoff):
    """The generator of ``thirdq.oracle``'s docstring, term by term from dense ladders."""
    a = dense_ladders(model.n, cutoff)
    ad = [m.conj().T for m in a]
    I = np.eye(cutoff**model.n)
    f = model.forces
    H = sum(
        model.H[j, k] * ad[j] @ a[k]
        + model.K[j, k] * a[j] @ a[k]
        + np.conj(model.K[j, k]) * ad[j] @ ad[k]
        for j in range(model.n)
        for k in range(model.n)
    ) + sum(f[j] * a[j] + np.conj(f[j]) * ad[j] for j in range(model.n))
    L = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for l, k, offset in zip(model.l, model.k, model.offsets):
        J = sum(l[j] * a[j] + k[j] * ad[j] for j in range(model.n)) + offset * I
        JdJ = J.conj().T @ J
        L = L + 2 * np.kron(J.conj(), J) - np.kron(I, JdJ) - np.kron(JdJ.T, I)
    return L


@pytest.mark.parametrize("n, cutoff", [(1, 6), (2, 4), (3, 3)])
def test_generator_matches_dense_lindblad_formula(rng, n, cutoff):
    # squeezing, forces and channel offsets: every term of the generator
    for _ in range(3):
        model = _with_linear_terms(rng, random_model(rng, n=n))
        assert np.abs(model.K).min() > 0
        ref = _dense_generator(model, cutoff)
        got = build_liouvillean_matrix(model, cutoff).L.toarray()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n, cutoff", [(1, 5), (2, 3), (3, 2)])
def test_readout_rows_are_dense_traces(rng, n, cutoff):
    # every row of R read against tr(A rho) of a random Hermitian rho
    lio = build_liouvillean_matrix(random_model(rng, n=n), cutoff)
    a = dense_ladders(n, cutoff)
    ad = [m.conj().T for m in a]
    pairs = [(j, k) for j in range(n) for k in range(n)]
    level = np.indices((cutoff,) * n).reshape(n, -1)  # level of mode j in each state
    operators = (
        [a[j] @ a[k] for j, k in pairs]
        + [ad[j] @ ad[k] for j, k in pairs]
        + [ad[k] @ a[j] for j, k in pairs]
        + a
        + ad
        + [ad[j] @ ad[j] @ a[j] @ a[j] for j in range(n)]
        + [np.diag((level[j] == cutoff - 1).astype(float)) for j in range(n)]
        + [np.eye(lio.dim)]
    )
    assert lio.R.shape == (len(operators), lio.dim**2)
    for _ in range(3):
        A = rng.normal(size=(lio.dim,) * 2) + 1j * rng.normal(size=(lio.dim,) * 2)
        rho = (A + A.conj().T) / np.linalg.norm(A + A.conj().T)
        x = lio.U.conj().T @ rho.ravel(order="F")
        assert np.abs(x.imag).max() <= 1e-15
        got = lio.R @ x.real
        want = np.array([np.trace(op @ rho) for op in operators])
        assert np.abs(got - want).max() <= 1e-12


def test_oracle_imports_nothing_from_the_analytic_pipeline():
    # verify certifies the analytic results only while the oracle is independent
    source = Path(__file__).parents[1] / "src" / "thirdq" / "oracle.py"
    tree = ast.parse(source.read_text())
    relative = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    absolute = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert relative <= {"errors", "model"}
    assert not any(name.split(".")[0] == "thirdq" for name in absolute)
