import numpy as np
import pytest

from thirdq import NotRealSimilar, bath_matrices, build_structure, realify

from conftest import (
    closed_model,
    from_real_form,
    multiset_max_delta,
    random_model,
    sec4_model,
)


def test_reference_structure_matrices():
    s = build_structure(sec4_model())
    assert np.allclose(
        s.X, [[0.25 + 0.5j, 0.0], [0.0, 0.25 - 0.5j]], atol=1e-14, rtol=0
    )
    assert np.allclose(s.Y, [[-0.25, 0.5], [0.5, -0.25]], atol=1e-14, rtol=0)
    assert s.S0 == pytest.approx(0.5, abs=1e-14)


def test_closed_system_structure():
    s = build_structure(closed_model(omega=1.0))
    assert np.allclose(s.X, [[0.5j, 0.0], [0.0, -0.5j]], atol=1e-15, rtol=0)
    assert not s.Y.any()
    assert s.S0 == 0


def test_trace_identity_n3(rng):
    model = random_model(rng, n=3)
    s = build_structure(model)
    bath = bath_matrices(model.l, model.k)
    expected = np.trace(bath.M) - np.trace(bath.N)
    assert abs(np.trace(s.X) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_realify_reference_instance():
    s = build_structure(sec4_model())
    # hand-evaluated conjugation of diag(1/4 + i/2, 1/4 - i/2)
    assert np.allclose(realify(s.X), [[0.25, 0.5], [-0.5, 0.25]], atol=1e-14, rtol=0)
    assert np.allclose(
        realify(s.Y), [[-0.25, 0.5], [0.5, -0.25]], atol=1e-14, rtol=0
    )


def test_realify_zero():
    assert not realify(np.zeros((2, 2))).any()


def test_realify_rejects_wrong_block_structure():
    with pytest.raises(NotRealSimilar):
        realify(np.diag([1j, 1j]))


def test_realify_rejects_an_odd_size():
    with pytest.raises(NotRealSimilar, match="even-dimensional"):
        realify(np.zeros((3, 3)))


def test_realify_judges_entries_near_the_float_limit():
    # |A|_F overflows past about 1e154: the remainder is judged on A scaled
    # by a power of two, so a patterned matrix maps and a broken one is refused
    big = np.diag([1e300 + 1e300j, 1e300 - 1e300j])
    assert np.array_equal(realify(big), [[1e300, 1e300], [-1e300, 1e300]])
    with pytest.raises(NotRealSimilar):
        realify(np.diag([1e300j, 1e300j]))


def test_structure_invariants_random_suite(rng):
    for _ in range(500):
        model = random_model(rng)
        s = build_structure(model)
        bath = bath_matrices(model.l, model.k)
        assert np.array_equal(s.Y, s.Y.T)
        expected = np.trace(bath.M) - np.trace(bath.N)
        scale = max(1.0, abs(expected))
        assert abs(np.trace(s.X) - expected) <= 1e-10 * scale
        # similarity to a real matrix holds for both X and Y
        realify(s.X, tol=1e-10)
        realify(s.Y, tol=1e-10)


def test_realify_preserves_eigenvalues(rng):
    for _ in range(50):
        model = random_model(rng)
        s = build_structure(model)
        before = np.linalg.eigvals(s.X)
        after = np.linalg.eigvals(realify(s.X).astype(complex))
        assert multiset_max_delta(before, after) <= 1e-9


def test_realify_is_the_product_with_u(rng):
    # the block formula is U A U^-1 without the product: the real part of
    # the product, and its imaginary remainder judged the same way
    for _ in range(50):
        X = build_structure(random_model(rng)).X
        m = len(X)
        U = np.kron(np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0), np.eye(m // 2))
        scale = np.abs(X).max()
        R = realify(X)
        assert np.abs(R - (U @ X @ U.conj().T).real).max() <= 1e-14 * scale
        assert np.abs(realify(from_real_form(R)) - R).max() <= 1e-14 * scale
        A = X + 1e-12 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        product = U @ A @ U.conj().T
        assert np.abs(realify(A) - product.real).max() <= 1e-14 * scale
        ratio = np.linalg.norm(product.imag) / max(1.0, np.linalg.norm(A))
        realify(A, tol=1.01 * ratio)
        with pytest.raises(NotRealSimilar):
            realify(A, tol=0.99 * ratio)
