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
    LindbladChannel,
    Liouvillean,
    NumericalError,
    TruncationInsufficient,
    build_fock_operators,
    build_liouvillean_matrix,
    build_structure,
    covariance_trajectory,
    mean_source,
    mean_trajectory,
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

from conftest import (
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
    atraj = covariance_trajectory(struct.X, struct.Y, np.zeros((2, 2)), times)
    assert np.abs(otraj.cov - atraj.C).max() <= 1e-5


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
    m = mean_trajectory(struct.X, g, np.zeros(2, dtype=complex), times)
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
        LindbladChannel(l=ch.l, k=ch.k, offset=complex(*(0.2 * rng.normal(size=2))))
        for ch in model.channels
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


def test_generator_breaking_hermiticity_is_refused():
    ops = build_fock_operators(1, 3)
    with pytest.raises(NumericalError):
        Liouvillean(ops, 1j * scipy.sparse.identity(9, dtype=complex))


@pytest.mark.parametrize("n, cutoff", [(1, 5), (2, 3)])
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
