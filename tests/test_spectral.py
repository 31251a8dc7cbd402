import itertools
import math

import numpy as np
import pytest

from thirdq import (
    CutoffTooLarge,
    DefectiveX,
    InputError,
    NotStable,
    RapiditySpectrum,
    Stability,
    SymplecticityViolation,
    build_structure,
    build_V,
    classify_stability,
    liouville_spectrum,
    rapidities,
    require_diagonalizable,
    solve,
    spectral_gap,
)
from thirdq.spectral import COND_DEFECTIVE, DEFAULT_TOL_MARGINAL

from conftest import (
    closed_model,
    from_real_form,
    multiset_max_delta,
    random_stable_model,
    sec4_model,
    unstable_sec4_model,
)


def _diagonal_spectrum(beta):
    """The spectrum of diag(beta), sorted and classified as rapidities does.

    Built directly: the rapidities of a model come in conjugate pairs, and
    these tests also take beta that do not.
    """
    beta = np.asarray(beta, dtype=complex)
    order = np.lexsort((beta.imag, beta.real))
    return RapiditySpectrum(
        beta=beta[order],
        P=np.eye(beta.size)[:, order],
        cond_P=1.0,
        stability=classify_stability(beta),
        tol_marginal=DEFAULT_TOL_MARGINAL,
    )


def _sec4_spectrum():
    struct = build_structure(sec4_model())
    return struct, rapidities(struct.X)


def test_reference_rapidities_stable():
    _, sp = _sec4_spectrum()
    assert sp.stability is Stability.STABLE
    assert np.allclose(sp.beta, [0.25 - 0.5j, 0.25 + 0.5j], atol=1e-13, rtol=0)


def test_gain_dominated_is_unstable():
    struct = build_structure(unstable_sec4_model())
    sp = rapidities(struct.X)
    assert sp.stability is Stability.UNSTABLE
    assert sp.beta.real.min() == pytest.approx(-0.25, abs=1e-13)


def test_closed_system_is_marginal():
    struct = build_structure(closed_model())
    sp = rapidities(struct.X)
    assert sp.stability is Stability.MARGINAL
    assert np.allclose(sp.beta, [-0.5j, 0.5j], atol=1e-15, rtol=0)


def test_eigendecomposition_residual():
    struct, sp = _sec4_spectrum()
    resid = np.linalg.norm(struct.X @ sp.P - sp.P @ np.diag(sp.beta))
    assert resid <= 1e-9 * np.linalg.norm(struct.X)


@pytest.mark.parametrize(
    "beta,expected",
    [
        ([0.25 + 0.5j, 0.25 - 0.5j], Stability.STABLE),
        ([-0.1, 0.3], Stability.UNSTABLE),
        ([1e-14 + 1j], Stability.MARGINAL),
    ],
)
def test_classify_stability(beta, expected):
    assert classify_stability(np.array(beta), 1e-10) is expected


def test_spectral_gap_values():
    pair = np.array([0.25 + 0.5j, 0.25 - 0.5j])
    assert spectral_gap(_diagonal_spectrum(pair)) == pytest.approx(0.5)
    four = [1.0, 2.0, 3.0 + 1j, 3.0 - 1j]
    assert spectral_gap(_diagonal_spectrum(four)) == pytest.approx(2.0)
    assert spectral_gap(_diagonal_spectrum(3 * pair)) == pytest.approx(1.5)
    with pytest.raises(NotStable):
        spectral_gap(_diagonal_spectrum([-0.1, 0.3]))


def test_decay_modes_cutoff_one():
    _, sp = _sec4_spectrum()
    modes = liouville_spectrum(sp, 1)
    assert modes.m.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert modes.lam[0] == 0
    got = sorted(modes.lam[1:], key=lambda z: z.imag)
    assert np.allclose(got, [-0.5 - 1j, -0.5 + 1j], atol=1e-12, rtol=0)


def test_decay_modes_cutoff_two_multiset():
    _, sp = _sec4_spectrum()
    modes = liouville_spectrum(sp, 2)
    got = np.sort_complex(modes.lam)
    expected = np.sort_complex(
        np.array([0, -0.5 - 1j, -0.5 + 1j, -1.0, -1 - 2j, -1 + 2j])
    )
    assert np.allclose(got, expected, atol=1e-12, rtol=0)
    # every mode satisfies its defining linear combination exactly
    for m, lam in zip(modes.m.tolist(), modes.lam):
        assert lam == -2 * np.dot(m, sp.beta)


def test_zero_multi_index_is_steady_state(rng):
    beta = np.abs(rng.normal(size=4)) + 1j * rng.normal(size=4) + 0.1
    modes = liouville_spectrum(_diagonal_spectrum(beta), 0)
    assert len(modes) == 1
    assert modes.lam[0] == 0


@pytest.mark.parametrize("n,cutoff", [(1, 2), (1, 5), (2, 3), (3, 2)])
def test_decay_mode_count_stars_and_bars(n, cutoff):
    beta = np.full(2 * n, 0.3) + 1j * np.linspace(-1, 1, 2 * n)
    modes = liouville_spectrum(_diagonal_spectrum(beta), cutoff)
    assert len(modes) == math.comb(2 * n + cutoff, 2 * n)


def test_enumeration_count_limit():
    beta = np.full(10, 1.0 + 0j)
    with pytest.raises(CutoffTooLarge):
        liouville_spectrum(_diagonal_spectrum(beta), 50, count_limit=1000)


def test_decay_modes_require_stability():
    with pytest.raises(NotStable):
        liouville_spectrum(_diagonal_spectrum([-0.1, 0.3]), 2)


def _brute_force_modes(beta, cutoff):
    """Every m with sum(m) <= cutoff, in the order (-Re lambda, m), lambda by np.dot."""
    beta = np.asarray(beta, dtype=complex)
    modes = [
        (m, complex(-2.0 * np.dot(m, beta)))
        for m in itertools.product(range(cutoff + 1), repeat=beta.size)
        if sum(m) <= cutoff
    ]
    modes.sort(key=lambda d: (-d[1].real, d[0]))
    return [list(m) for m, _ in modes], np.array([lam for _, lam in modes])


def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 4])
def test_decay_modes_match_brute_force_with_ties(n, cutoff):
    # dyadic rapidities make every sum exact, and equal real parts make
    # many rates tie, so the order rests on the multi-index tie-break
    re = [0.25, 0.5, 0.25, 0.75, 0.5, 0.25][: 2 * n]
    im = [1.0, -0.5, -1.0, 0.0, 0.5, 1.0][: 2 * n]
    sp = _diagonal_spectrum(np.array(re) + 1j * np.array(im))
    modes = liouville_spectrum(sp, cutoff)
    m, lam = _brute_force_modes(sp.beta, cutoff)
    assert modes.m.dtype == np.uint8
    assert modes.m.tolist() == m
    assert np.array_equal(_bits(modes.lam), _bits(lam))


def test_decay_modes_match_brute_force_bits_up_to_two(rng):
    for _ in range(20):
        _, _, sp = random_stable_model(rng, n=int(rng.integers(1, 4)))
        for cutoff in (0, 1, 2):
            modes = liouville_spectrum(sp, cutoff)
            m, lam = _brute_force_modes(sp.beta, cutoff)
            assert modes.m.tolist() == m
            assert np.array_equal(_bits(modes.lam), _bits(lam))


def test_decay_mode_rates_follow_the_summation_rule(rng):
    # above a cutoff of 2 the bits are those of the documented right-to-left sum
    for _ in range(10):
        _, _, sp = random_stable_model(rng, n=int(rng.integers(1, 4)))
        modes = liouville_spectrum(sp, 4)
        m, _ = _brute_force_modes(sp.beta, 4)
        assert sorted(modes.m.tolist()) == sorted(m)
        for row, lam in zip(modes.m.tolist(), modes.lam):
            acc = row[-1] * sp.beta[-1]
            for k, b in zip(row[-2::-1], sp.beta[-2::-1]):
                acc = k * b + acc
            assert np.array_equal(_bits(lam), _bits(-2.0 * acc))
        assert np.all(np.diff(-modes.lam.real) >= 0)


def test_decay_mode_table_dtype_holds_the_cutoff():
    sp = _diagonal_spectrum([0.5, 0.75])
    assert liouville_spectrum(sp, 255).m.dtype == np.uint8
    big = liouville_spectrum(sp, 256)
    assert big.m.dtype == np.uint16
    assert big.m.max() == 256 and len(big) == math.comb(258, 2)


def test_decay_mode_refusals_allocate_nothing(monkeypatch):
    from thirdq import spectral

    stable = _diagonal_spectrum(np.full(200, 1.0 + 0j))
    unstable = _diagonal_spectrum([-0.1, 0.3])
    # any numpy call after the refusal checks would raise AttributeError
    monkeypatch.setattr(spectral, "np", None)
    with pytest.raises(CutoffTooLarge):
        liouville_spectrum(stable, 10**6)
    with pytest.raises(InputError):
        liouville_spectrum(stable, -1)
    with pytest.raises(NotStable):
        liouville_spectrum(unstable, 2)


def test_gap_matches_slowest_decay_mode(rng):
    for _ in range(20):
        _, _, sp = random_stable_model(rng)
        gap = spectral_gap(sp)
        for cutoff in (1, 2):
            modes = liouville_spectrum(sp, cutoff)
            slowest = modes.lam.real[modes.m.any(axis=1)].max()
            assert gap == pytest.approx(-slowest, rel=1e-12)


def test_conjugate_pair_property(rng):
    for _ in range(100):
        _, struct, sp = random_stable_model(rng)
        assert multiset_max_delta(sp.beta, sp.beta.conj()) <= 1e-8


def test_symplectic_eigenbasis_reference():
    struct, sp = _sec4_spectrum()
    Z = solve(struct.X, struct.Y, sp).Z
    V = build_V(sp.P, Z, structure=struct, beta=sp.beta)
    two_n = 2
    J = np.block(
        [
            [np.zeros((two_n, two_n)), np.eye(two_n)],
            [-np.eye(two_n), np.zeros((two_n, two_n))],
        ]
    )
    assert np.linalg.norm(V.T @ J @ V - J) < 1e-10


def test_symplectic_identity_case():
    V = build_V(np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(V, np.eye(4))


def test_inconsistent_pair_detected():
    struct, sp = _sec4_spectrum()
    Z = solve(struct.X, struct.Y, sp).Z
    bad = Z.copy()
    bad[0, 1] += 1e-3  # asymmetric perturbation breaks symplecticity
    with pytest.raises(SymplecticityViolation):
        build_V(sp.P, bad, structure=struct, beta=sp.beta)
    bad = Z.copy()
    bad[0, 0] += 1e-3  # symmetric perturbation no longer solves the equation
    with pytest.raises(SymplecticityViolation):
        build_V(sp.P, bad, structure=struct, beta=sp.beta)


def test_normal_form_reconstruction(rng):
    for _ in range(30):
        _, struct, sp = random_stable_model(rng)
        Z = solve(struct.X, struct.Y, sp).Z
        V = build_V(sp.P, Z, structure=struct, beta=sp.beta)
        two_n = struct.X.shape[0]
        JS = np.zeros((2 * two_n, 2 * two_n), dtype=complex)
        JS[:two_n, :two_n] = -struct.X.T
        JS[:two_n, two_n:] = struct.Y
        JS[two_n:, two_n:] = struct.X
        D = np.diag(np.concatenate([-sp.beta, sp.beta]))
        Vinv = np.linalg.inv(V)
        norm_s = np.linalg.norm(
            np.block([[np.zeros_like(struct.X), -struct.X], [-struct.X.T, struct.Y]])
        )
        assert np.linalg.norm(Vinv @ D @ V - JS) <= 1e-8 * norm_s


def test_defective_x_rejected():
    X = from_real_form([[1.0, 1.0], [0.0, 1.0]])  # exact Jordan block
    sp = rapidities(X)  # the spectrum itself is returned, with its cond(P)
    assert not sp.cond_P <= COND_DEFECTIVE
    with pytest.raises(DefectiveX, match="^X not diagonalizable within tolerance"):
        require_diagonalizable(sp.cond_P)
    with pytest.raises(DefectiveX):
        build_V(sp.P, np.zeros((2, 2)))
    require_diagonalizable(COND_DEFECTIVE)  # the bound itself is accepted
