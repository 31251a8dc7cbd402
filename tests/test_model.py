import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdq import (
    DimensionMismatch,
    HermiticityViolation,
    InputError,
    SymmetryViolation,
    bath_matrices,
    build_liouvillean_matrix,
    moment_steps,
    oracle_evolve,
    validate_model,
    vacuum_state,
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


# a channel is an (l, k) or an (l, k, offset) tuple
CHANNEL_FORMS = {"tuple": lambda l, k: (l, k), "offset-tuple": lambda l, k: (l, k, 0.25j)}


@pytest.mark.parametrize("form", CHANNEL_FORMS)
@pytest.mark.parametrize(
    "fault, message",
    [
        ("ragged", "channels[2].k must have length 3"),
        ("non-finite", "channels[2].k contains non-finite entries"),
        ("wrong-width", "channels[0].l must have length 3"),
    ],
)
def test_first_bad_channel_vector_is_named(form, fault, message):
    channels = [CHANNEL_FORMS[form](l, k) for l, k in _faulty_channels(fault)]
    with pytest.raises(DimensionMismatch) as info:
        validate_model(3, np.eye(3), None, channels)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("form", CHANNEL_FORMS)
def test_channel_vectors_are_read_only_copies(form):
    l, k = np.array([1.0, 2.0j]), np.array([0.5, 0.0])
    channel = CHANNEL_FORMS[form](l, k)
    model = validate_model(2, np.eye(2), None, [channel, channel])
    for v in (*model.l, *model.k):
        with pytest.raises(ValueError):
            v[0] = 7.0
    l[0], k[1] = 9.0, 9.0
    assert model.l.tolist() == [[1.0, 2.0j], [1.0, 2.0j]]
    assert model.k.tolist() == [[0.5, 0.0], [0.5, 0.0]]
    assert model.offsets.tolist() == [complex(*channel[2:])] * 2


@pytest.mark.parametrize(
    "offset", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"]
)
def test_non_finite_channel_offset_is_named(offset):
    channels = [([1.0], [0.0], 0.5), ([1.0], [0.0], offset)]
    with pytest.raises(DimensionMismatch, match=r"^channels\[1\]\.offset is not finite$"):
        validate_model(1, [[1.0]], None, channels)


def _first_moments(C0=np.zeros((2, 2)), times=(0.0, 1.0)):
    zero = np.zeros((2, 2))
    return next(moment_steps(zero, zero, np.zeros(2), C0, np.zeros(2), times))


def _oracle_trajectory(rho0=None, times=(0.0, 1.0)):
    lio = build_liouvillean_matrix(sec4_model(), 3)
    return oracle_evolve(lio, vacuum_state(lio) if rho0 is None else rho0, times)


def _model(n=1, H=((1.0,),), **kwargs):
    return validate_model(n, H, **kwargs)


# values numpy cannot convert: each is refused as a ThirdQError that names
# its field, not as numpy's ValueError, TypeError or OverflowError
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _model(H=[["x"]]), DimensionMismatch, "H "),
        (lambda: _model(K=[["x"]]), DimensionMismatch, "K "),
        (lambda: _model(channels=[(["x"], [0.0])]), DimensionMismatch, "channels[0].l "),
        (lambda: _model(forces=["x"]), DimensionMismatch, "forces "),
        (lambda: _model(channels=[([1.0], [0.0], "x")]), DimensionMismatch, "channels[0].offset "),
        (
            lambda: _model(2, np.eye(2), channels=[([1.0, [2.0]], [0.0, 0.0])]),
            DimensionMismatch,
            "channels[0].l ",
        ),
        (lambda: _model(H=[[10**400]]), DimensionMismatch, "H "),
        (lambda: _first_moments(times=["a", "b"]), InputError, "times "),
        (lambda: _first_moments(C0="ab"), DimensionMismatch, "C0 "),
        (lambda: _oracle_trajectory(times=["a", "b"]), InputError, "times "),
        (lambda: _oracle_trajectory(rho0="ab"), DimensionMismatch, "rho0 "),
    ],
    ids=[
        "H", "K", "channel-l", "forces", "offset", "ragged-channel", "H-overflow",
        "moment-times", "C0", "oracle-times", "rho0",
    ],
)
def test_unconvertible_values_are_refused_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


# the propagator and the oracle evolve on the same grid, so they read it by
# one rule and refuse a bad one in the same words
@pytest.mark.parametrize(
    "times",
    [["a", "b"], [0.0, np.nan], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.1, 0.3]],
    ids=["strings", "nan", "negative-start", "descending", "non-uniform"],
)
def test_moments_and_oracle_refuse_a_bad_grid_alike(times):
    messages = []
    for call in (_first_moments, _oracle_trajectory):
        with pytest.raises(InputError) as info:
            call(times=times)
        assert type(info.value) is InputError
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_bath_matrices_empty_channel_list():
    model = validate_model(3, np.eye(3))
    assert model.l.shape == model.k.shape == (0, 3) and model.offsets.shape == (0,)
    bath = bath_matrices(model.l, model.k)
    assert not bath.M.any() and not bath.N.any() and not bath.L.any()


def _per_channel_bath(channels, n):
    """M, N, L as one outer product per channel and vector, summed from zeros."""
    M, N, L = (np.zeros((n, n), dtype=complex) for _ in range(3))
    for l, k in channels:
        M = M + np.outer(l, l.conj())
        N = N + np.outer(k, k.conj())
        L = L + np.outer(l, k.conj())
    return (M + M.conj().T) / 2, (N + N.conj().T) / 2, L


@pytest.mark.parametrize("zero", ["none", "l", "k", "both", "all-channels"])
def test_bath_matrices_equal_the_per_channel_sum_bit_for_bit(rng, zero):
    # a zero vector's outer products are skipped; that must be exact
    n = 5
    model = random_model(rng, n=n, max_channels=6)
    channels = list(zip(model.l, model.k))
    channels += [(l * 0.5j, k[::-1]) for l, k in channels]
    if zero == "all-channels":
        channels = []
    for i, (l, k) in enumerate(channels):
        if zero != "none" and i % 2 == 0:
            l = np.zeros(n, dtype=complex) if zero in ("l", "both") else l
            k = -np.zeros(n, dtype=complex) if zero in ("k", "both") else k
            channels[i] = (l, k)
    model = validate_model(n, np.eye(n), None, channels)
    bath = bath_matrices(model.l, model.k)
    for got, expected in zip((bath.M, bath.N, bath.L), _per_channel_bath(channels, n)):
        assert got.tobytes() == expected.tobytes()


def test_bath_matrices_reference_values():
    m = sec4_model()
    bath = bath_matrices(m.l, m.k)
    assert bath.M[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert bath.N[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert bath.L[0, 0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("c", [0.3, 1.0 + 0.5j, -0.2j, 2.0])
def test_single_channel_saturates_positivity(c):
    # one channel forces |L|^2 = M N exactly (rank-1 coupling)
    bath = bath_matrices(np.array([[1.0 + 0j]]), np.array([[c]], dtype=complex))
    assert abs(bath.L[0, 0]) ** 2 == pytest.approx(
        (bath.M[0, 0] * bath.N[0, 0]).real, rel=1e-12
    )


def test_bath_matrices_hermitian_psd(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        model = random_model(rng, n=n)
        bath = bath_matrices(model.l, model.k)
        for A in (bath.M, bath.N):
            assert np.array_equal(A, A.conj().T)
            assert np.linalg.eigvalsh(A).min() >= -1e-12


def test_cross_coupling_cauchy_schwarz_bound(rng):
    for _ in range(100):
        model = random_model(rng)
        bath = bath_matrices(model.l, model.k)
        nch = max(1, len(model.l))
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
        offsets = rng.normal(size=len(base.l)) * (rng.random(len(base.l)) < 0.5)
        channels = list(zip(base.l, base.k, offsets))
        model = validate_model(base.n, base.H, base.K, channels, forces)
        doc = model_to_document(model)
        assert ("forces" in doc) == (forces is not None)
        back = document_to_model(doc)
        assert np.allclose(back.H, model.H, atol=1e-15, rtol=0)
        assert np.allclose(back.K, model.K, atol=1e-15, rtol=0)
        assert np.allclose(back.l, model.l, atol=1e-15, rtol=0)
        assert np.allclose(back.k, model.k, atol=1e-15, rtol=0)
        np.testing.assert_array_equal(back.offsets, model.offsets)
        np.testing.assert_array_equal(back.forces, model.forces)


@settings(max_examples=50, deadline=None)
@given(
    re=st.floats(-1e6, 1e6, allow_nan=False),
    im=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_complex_scalars_round_trip_exactly(re, im):
    m = validate_model(1, [[1.0]], None, [([re + 1j * im], [0.5 * re - 1j * im])])
    back = document_to_model(model_to_document(m))
    assert back.l[0, 0] == m.l[0, 0]
    assert back.k[0, 0] == m.k[0, 0]


def test_model_arrays_are_read_only():
    m = validate_model(1, [[1.0]], None, [([1.0], [0.5], 0.1)], forces=[0.2])
    for name in ("H", "K", "l", "k", "offsets", "forces"):
        A = getattr(m, name)
        with pytest.raises(ValueError):
            A[(0,) * A.ndim] = 2.0
