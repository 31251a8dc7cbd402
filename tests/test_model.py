import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdq import (
    DimensionMismatch,
    HermiticityViolation,
    LindbladChannel,
    SymmetryViolation,
    bath_matrices,
    validate_model,
)
from thirdq.codec import document_to_model, model_to_document

from conftest import random_model, sec4_model


def test_exact_input_accepted_unchanged():
    m = validate_model(1, [[1.0]], [[0.0]], [([1.0], [0.0])])
    assert m.n == 1
    assert m.H[0, 0] == 1.0
    assert m.K[0, 0] == 0.0
    assert not m.repaired


def test_near_hermitian_input_is_repaired():
    m = validate_model(1, [[1.0 + 1e-12j]], None, [], tol_input=1e-9)
    assert m.H[0, 0] == 1.0
    assert m.repaired


def test_hermiticity_violation_rejected():
    H = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(HermiticityViolation):
        validate_model(2, H, None, [], tol_input=1e-9)


def test_symmetry_violation_rejected():
    K = np.array([[0.0, 0.1], [0.0, 0.0]])
    with pytest.raises(SymmetryViolation):
        validate_model(2, np.eye(2), K, [])


@pytest.mark.parametrize(
    "H,K,error",
    [
        ([[0.0, 1e308], [-1e308, 0.0]], None, HermiticityViolation),
        (np.eye(2), [[0.0, 1e308], [-1e308, 0.0]], SymmetryViolation),
    ],
    ids=["H", "K"],
)
def test_huge_antisymmetric_part_is_rejected_not_zeroed(H, K, error):
    # |A - A^H|_F and |A|_F both overflow on the unscaled matrix
    with pytest.raises(error):
        validate_model(2, H, K, [])


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        validate_model(2, np.eye(3), None, [])
    with pytest.raises(DimensionMismatch):
        validate_model(2, np.eye(2), None, [([1.0], [0.0])])
    with pytest.raises(DimensionMismatch):
        validate_model(0, np.zeros((0, 0)), None, [])
    with pytest.raises(DimensionMismatch):
        validate_model(1, [[np.nan]], None, [])


def _faulty_channels(fault, n=3):
    """Four channels; channel 2 is the first with a bad vector (its k)."""
    good = np.arange(n) + 0.5j
    vectors = [[good, good] for _ in range(4)]
    if fault == "ragged":
        vectors[2][1] = np.arange(n + 1.0)
        vectors[3][0] = np.arange(n - 1.0)
    elif fault == "non-finite":
        vectors[2][1] = good + np.array([0.0, np.inf, 0.0])
        vectors[3][0] = np.full(n, np.nan)
    else:  # every vector is one entry too long: channel 0 is the first bad one
        vectors = [[np.arange(n + 1.0)] * 2 for _ in range(4)]
    return vectors


@pytest.mark.parametrize("form", ["LindbladChannel", "tuple"])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("ragged", "channels[2].k must have length 3"),
        ("non-finite", "channels[2].k contains non-finite entries"),
        ("wrong-width", "channels[0].l must have length 3"),
    ],
)
def test_first_bad_channel_vector_is_named(form, fault, message):
    vectors = _faulty_channels(fault)
    if form == "LindbladChannel":
        channels = [LindbladChannel(l=l, k=k) for l, k in vectors]
    else:
        channels = [(l, k) for l, k in vectors]
    with pytest.raises(DimensionMismatch) as info:
        validate_model(3, np.eye(3), None, channels)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("form", ["LindbladChannel", "tuple"])
def test_channel_vectors_are_read_only_copies(form):
    l, k = np.array([1.0, 2.0j]), np.array([0.5, 0.0])
    channel = LindbladChannel(l=l, k=k) if form == "LindbladChannel" else (l, k)
    model = validate_model(2, np.eye(2), None, [channel, channel])
    for ch in model.channels:
        for v in (ch.l, ch.k):
            with pytest.raises(ValueError):
                v[0] = 7.0
    l[0], k[1] = 9.0, 9.0
    assert model.channels[0].l.tolist() == model.channels[1].l.tolist() == [1.0, 2.0j]
    assert model.channels[0].k.tolist() == [0.5, 0.0]


def test_bath_matrices_empty_channel_list():
    bath = bath_matrices([], 3)
    assert not bath.M.any() and not bath.N.any() and not bath.L.any()


def _per_channel_bath(channels, n):
    """M, N, L as one outer product per channel and vector, summed from zeros."""
    M, N, L = (np.zeros((n, n), dtype=complex) for _ in range(3))
    for ch in channels:
        M = M + np.outer(ch.l, ch.l.conj())
        N = N + np.outer(ch.k, ch.k.conj())
        L = L + np.outer(ch.l, ch.k.conj())
    return (M + M.conj().T) / 2, (N + N.conj().T) / 2, L


@pytest.mark.parametrize("zero", ["none", "l", "k", "both", "all-channels"])
def test_bath_matrices_equal_the_per_channel_sum_bit_for_bit(rng, zero):
    # a zero vector's outer products are skipped; that must be exact
    n = 5
    channels = list(random_model(rng, n=n, max_channels=6).channels)
    channels += [LindbladChannel(l=ch.l * 0.5j, k=ch.k[::-1]) for ch in channels]
    if zero == "all-channels":
        channels = []
    for i, ch in enumerate(channels):
        if zero != "none" and i % 2 == 0:
            l = np.zeros(n, dtype=complex) if zero in ("l", "both") else ch.l
            k = -np.zeros(n, dtype=complex) if zero in ("k", "both") else ch.k
            channels[i] = LindbladChannel(l=l, k=k)
    bath = bath_matrices(validate_model(n, np.eye(n), None, channels).channels, n)
    for got, expected in zip((bath.M, bath.N, bath.L), _per_channel_bath(channels, n)):
        assert got.tobytes() == expected.tobytes()


def test_bath_matrices_reference_values():
    m = sec4_model()
    bath = bath_matrices(m.channels, 1)
    assert bath.M[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert bath.N[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert bath.L[0, 0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("c", [0.3, 1.0 + 0.5j, -0.2j, 2.0])
def test_single_channel_saturates_positivity(c):
    # one channel forces |L|^2 = M N exactly (rank-1 coupling)
    bath = bath_matrices([LindbladChannel(l=np.array([1.0 + 0j]), k=np.array([c]))], 1)
    assert abs(bath.L[0, 0]) ** 2 == pytest.approx(
        (bath.M[0, 0] * bath.N[0, 0]).real, rel=1e-12
    )


def test_bath_matrices_hermitian_psd(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        model = random_model(rng, n=n)
        bath = bath_matrices(model.channels, n)
        for A in (bath.M, bath.N):
            assert np.array_equal(A, A.conj().T)
            assert np.linalg.eigvalsh(A).min() >= -1e-12


def test_cross_coupling_cauchy_schwarz_bound(rng):
    for _ in range(100):
        model = random_model(rng)
        bath = bath_matrices(model.channels, model.n)
        nch = max(1, len(model.channels))
        bound = (
            np.real(np.diag(bath.M))[:, None]
            * np.real(np.diag(bath.N))[None, :]
            * nch**2
        )
        assert np.all(np.abs(bath.L) ** 2 <= bound + 1e-12)


def test_serialization_round_trip(rng):
    for _ in range(20):
        base = random_model(rng)
        forces = None
        if rng.random() < 0.5:
            forces = rng.normal(size=base.n) + 1j * rng.normal(size=base.n)
        model = validate_model(base.n, base.H, base.K, base.channels, forces)
        doc = model_to_document(model)
        back = document_to_model(doc)
        assert np.allclose(back.H, model.H, atol=1e-15, rtol=0)
        assert np.allclose(back.K, model.K, atol=1e-15, rtol=0)
        for c1, c2 in zip(back.channels, model.channels):
            assert np.allclose(c1.l, c2.l, atol=1e-15, rtol=0)
            assert np.allclose(c1.k, c2.k, atol=1e-15, rtol=0)
            assert c1.offset == c2.offset


@settings(max_examples=50, deadline=None)
@given(
    re=st.floats(-1e6, 1e6, allow_nan=False),
    im=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_complex_scalars_round_trip_exactly(re, im):
    m = validate_model(1, [[1.0]], None, [([re + 1j * im], [0.5 * re - 1j * im])])
    back = document_to_model(model_to_document(m))
    assert back.channels[0].l[0] == m.channels[0].l[0]
    assert back.channels[0].k[0] == m.channels[0].k[0]


def test_model_arrays_are_read_only():
    m = sec4_model()
    with pytest.raises(ValueError):
        m.H[0, 0] = 2.0
