import numpy as np
import pytest

from thirdq import (
    IllConditioned,
    Method,
    NotStable,
    NumericalError,
    ResonantSpectrum,
    build_structure,
    rapidities,
    residual_norm,
    solve,
    solve_eigenbasis,
    solve_schur,
)

from conftest import closed_model, random_stable_model, sec4_model, unstable_sec4_model

SEC4_Z = np.array([[-0.1 + 0.2j, 1.0], [1.0, -0.1 - 0.2j]])


def _sec4():
    struct = build_structure(sec4_model())
    return struct, rapidities(struct.X)


def test_eigenbasis_reference_solution():
    struct, sp = _sec4()
    sol = solve_eigenbasis(struct.X, struct.Y, sp)
    assert np.allclose(sol.Z, SEC4_Z, atol=1e-12, rtol=0)
    assert sol.residual <= 1e-12


def test_schur_reference_solution():
    struct, _ = _sec4()
    sol = solve_schur(struct.X, struct.Y)
    assert np.allclose(sol.Z, SEC4_Z, atol=1e-10, rtol=0)
    assert sol.method is Method.SCHUR


def test_zero_rhs_gives_zero_solution():
    struct, sp = _sec4()
    sol = solve_eigenbasis(struct.X, np.zeros((2, 2)), sp)
    assert not sol.Z.any()
    assert sol.residual == 0.0


def test_resonant_spectrum_rejected():
    eps = 1e-12
    X = np.diag([eps + 0.5j, eps - 0.5j])
    sp = rapidities(X)
    with pytest.raises(ResonantSpectrum):
        solve_eigenbasis(X, np.eye(2, dtype=complex), sp)
    with pytest.raises(ResonantSpectrum):
        solve_schur(X, np.eye(2, dtype=complex))


def test_solver_selection_and_refusals():
    struct, sp = _sec4()
    assert solve(struct.X, struct.Y, sp).method is Method.EIGENBASIS

    closed = build_structure(closed_model())
    with pytest.raises(NotStable):
        solve(closed.X, closed.Y, rapidities(closed.X))

    unstable = build_structure(unstable_sec4_model())
    with pytest.raises(NotStable):
        solve(unstable.X, unstable.Y, rapidities(unstable.X))


def test_near_defective_falls_back_to_schur():
    # Jordan-like block split by 1e-10: eigenvectors nearly collinear
    X = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]], dtype=complex)
    Y = np.array([[0.8, 0.3], [0.3, 1.2]], dtype=complex)
    sp = rapidities(X)
    assert sp.cond_P > 1e9
    with pytest.raises(IllConditioned):
        solve_eigenbasis(X, Y, sp)
    schur = solve_schur(X, Y)
    assert schur.residual <= 1e-8
    combined = solve(X, Y, sp)
    assert combined.method is Method.SCHUR
    assert combined.residual <= 1e-8


def test_exceptional_point_model_uses_schur():
    # squeezing drive tuned to 2|K| = omega merges the rapidities; the
    # eigenbasis route degrades there but the equation stays uniquely solvable
    from thirdq import validate_model, build_structure, physical_correlators

    model = validate_model(1, [[1.0]], [[0.5]], [([1.0], [0.0])])
    struct = build_structure(model)
    sp = rapidities(struct.X)
    assert sp.cond_P > 1e6
    sol = solve(struct.X, struct.Y, sp)
    assert sol.method is Method.SCHUR
    assert sol.residual <= 1e-9
    corr = physical_correlators(sol.Z, 1)
    assert corr.occupations[0] == pytest.approx(0.5, abs=1e-10)
    assert corr.pair_aa[0, 0] == pytest.approx(-0.5 - 0.5j, abs=1e-10)


def test_random_stable_schur_residual(rng):
    _, struct, sp = random_stable_model(rng, n=4)
    sol = solve_schur(struct.X, struct.Y)
    assert sol.residual <= 1e-9


def test_rhs_scaling_linearity(rng):
    _, struct, sp = random_stable_model(rng)
    base = solve(struct.X, struct.Y, sp).Z
    scaled = solve(struct.X, 3.5 * struct.Y, sp).Z
    assert np.allclose(scaled, 3.5 * base, atol=1e-10 * np.linalg.norm(base), rtol=0)


def test_methods_agree_and_certify(rng):
    for _ in range(100):
        _, struct, sp = random_stable_model(rng)
        eb = solve_eigenbasis(struct.X, struct.Y, sp)
        bs = solve_schur(struct.X, struct.Y)
        assert eb.residual <= 1e-9
        assert bs.residual <= 1e-9
        assert np.array_equal(eb.Z, eb.Z.T)
        assert np.array_equal(bs.Z, bs.Z.T)
        scale = max(1.0, np.linalg.norm(eb.Z))
        assert np.linalg.norm(eb.Z - bs.Z) <= 1e-8 * scale


def test_occupation_entries_are_real(rng):
    for _ in range(50):
        model, struct, sp = random_stable_model(rng)
        Z = solve(struct.X, struct.Y, sp).Z
        n = model.n
        occ = np.diag(Z[:n, n:])
        assert np.abs(occ.imag).max() <= 1e-9


def test_residual_norm_absolute_for_zero_rhs():
    struct, sp = _sec4()
    assert residual_norm(struct.X, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_uncertified_solution_is_refused(rng):
    # a residual_tol below the attained residual leaves nothing certified,
    # on the eigenbasis route and on the ill-conditioned Schur route alike
    _, struct, sp = random_stable_model(rng, n=4)
    attained = solve(struct.X, struct.Y, sp).residual
    assert attained > 0
    with pytest.raises(NumericalError):
        solve(struct.X, struct.Y, sp, residual_tol=attained / 2)

    X = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]], dtype=complex)
    Y = np.array([[0.8, 0.3], [0.3, 1.2]], dtype=complex)
    sp = rapidities(X)
    sol = solve(X, Y, sp)
    assert sol.method is Method.SCHUR and sol.residual > 0
    with pytest.raises(NumericalError):
        solve(X, Y, sp, residual_tol=sol.residual / 2)
