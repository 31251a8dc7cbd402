import json
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from thirdq import (
    BosonicModel,
    Stability,
    build_structure,
    rapidities,
    validate_model,
)

# single-oscillator reference instance: omega=1, loss u=1, gain v=0.5,
# cross coupling w=0.25, realized by two channels
SEC4_CHANNELS = [
    ([1.0], [0.25]),
    ([0.0], [np.sqrt(0.4375)]),
]


def from_real_form(R) -> np.ndarray:
    """The complex X = U^-1 R U whose real form (``thirdq.realify``) is the real R.

    U = (I + i sigma_x)/sqrt(2) (x) I; every X of a model has this form.
    """
    R = np.asarray(R, dtype=float)
    U = np.kron(np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0), np.eye(len(R) // 2))
    return U.conj().T @ R @ U


# Jordan-like real block split by 1e-10: eigenvectors nearly collinear
NEAR_DEFECTIVE_R = [[1.0, 1.0], [0.0, 1.0 + 1e-10]]


def sec4_model() -> BosonicModel:
    return validate_model(1, [[1.0]], [[0.0]], SEC4_CHANNELS)


def sec4_document() -> dict:
    return {
        "n": 1,
        "H": [[[1.0, 0.0]]],
        "K": [[[0.0, 0.0]]],
        "channels": [
            {"l": [[1.0, 0.0]], "k": [[0.25, 0.0]]},
            {"l": [[0.0, 0.0]], "k": [[float(np.sqrt(0.4375)), 0.0]]},
        ],
    }


def unstable_sec4_model() -> BosonicModel:
    # u=0.5, v=1 flips the sign of u - v
    return validate_model(
        1, [[1.0]], [[0.0]], [([np.sqrt(0.5)], [0.25]), ([0.0], [np.sqrt(0.9375)])]
    )


def closed_model(omega=1.0) -> BosonicModel:
    return validate_model(1, [[omega]], [[0.0]], [])


def two_mode_model() -> BosonicModel:
    """Coupled pair with per-mode loss dominating gain; occupations ~ 0.2."""
    u = [1.0, 1.1]
    v = [0.15, 0.2]
    channels = []
    for j in range(2):
        l = np.zeros(2)
        l[j] = np.sqrt(u[j])
        channels.append((l, np.zeros(2)))
        k = np.zeros(2)
        k[j] = np.sqrt(v[j])
        channels.append((np.zeros(2), k))
    H = [[1.0, 0.3], [0.3, 1.3]]
    return validate_model(2, H, None, channels)


def arpack_tail_model() -> BosonicModel:
    """A bench two-mode model on which, at cutoff 6 with k = 5, ARPACK's five
    eigenvalues of the identity's block are not that block's five rightmost:
    it misses -1.80715 and -1.83069 +- 0.56385i for -1.83163 +- 2.16277i.
    The five slowest over all blocks are still right."""
    H = np.diag([1.1854331684740052, 0.9782641064831772]) + 0.26398404793402724 * np.array(
        [[0.0, 1.0], [1.0, 0.0]]
    )
    K = np.diag([0.022065312964000276, 0.004394878330628727])
    loss = [0.945428616538569, 1.0226207525899043]
    gain = [0.0622631101014473, 0.07517497540894534]
    eye, zero = np.eye(2), np.zeros(2)
    channels = [(np.sqrt(loss[j]) * eye[j], zero) for j in range(2)]
    channels += [(zero, np.sqrt(gain[j]) * eye[j]) for j in range(2)]
    return validate_model(2, H, K, channels)


def two_mode_document() -> dict:
    m = two_mode_model()
    from thirdq.codec import model_to_document

    return model_to_document(m)


def dense_chain_model(rng, n) -> BosonicModel:
    """A stable hopping chain with local loss, gain at 20-50% of the loss and
    weak squeezing, written in a random passive mode basis so that X is dense."""
    H = np.diag(rng.uniform(0.8, 1.2, n))
    H += np.diag(rng.uniform(0.2, 0.4, n - 1), 1)
    H = np.triu(H) + np.triu(H, 1).T
    kappa = rng.uniform(0.01, 0.03, n)
    K = np.diag(kappa) + np.diag(kappa[:-1] / 2, 1) + np.diag(kappa[:-1] / 2, -1)
    loss = rng.uniform(0.8, 1.2, n)
    gain = loss * rng.uniform(0.2, 0.5, n)
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    eye, zero = np.eye(n), np.zeros(n)
    channels = [(U.T @ (np.sqrt(loss[j]) * eye[j]), zero) for j in range(n)]
    channels += [(zero, U.conj().T @ (np.sqrt(gain[j]) * eye[j])) for j in range(n)]
    return validate_model(n, U.conj().T @ H @ U, U.T @ K @ U, channels)


def forced_chain_document(rng, n) -> dict:
    """The document of a :func:`dense_chain_model` driven by random forces."""
    from thirdq.codec import model_to_document

    chain = dense_chain_model(rng, n)
    forces = rng.normal(size=n) + 1j * rng.normal(size=n)
    channels = list(zip(chain.l, chain.k))
    return model_to_document(validate_model(n, chain.H, chain.K, channels, forces=forces))


def random_model(rng, n=None, max_channels=4, gain_scale=0.35, squeeze_scale=0.15):
    """A random valid model; loss-dominated so Stable instances are common."""
    if n is None:
        n = int(rng.integers(1, 6))
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (H + H.conj().T) / 2
    K = squeeze_scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    K = (K + K.T) / 2
    channels = []
    for _ in range(int(rng.integers(1, max_channels + 1))):
        l = rng.normal(size=n) + 1j * rng.normal(size=n)
        k = gain_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        channels.append((l, k))
    return validate_model(n, H, K, channels)


def random_stable_model(rng, n=None, max_tries=200):
    """Random Stable model with a safe margin from the imaginary axis.

    The margin (min Re beta > 0.02) and a conditioning bound keep the
    certified tolerances meaningful; near-marginal spectra are a separate,
    deliberately exercised regime.
    """
    for _ in range(max_tries):
        model = random_model(rng, n=n)
        struct = build_structure(model)
        try:
            spectrum = rapidities(struct.X)
        except Exception:
            continue
        if (
            spectrum.stability is Stability.STABLE
            and spectrum.beta.real.min() > 0.02
            and spectrum.cond_P < 1e6
        ):
            return model, struct, spectrum
    raise RuntimeError("failed to draw a stable model")


def load_schema(name: str) -> dict:
    """A published schema; the reference the model loader is tested against."""
    with resources.files("thirdq.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


# bytes every JSON reader must refuse as bad input, keyed by test id
UNPARSABLE_JSON = {
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "5000-digit-integer": b'{"n": ' + b"1" * 5000 + b"}",
    "invalid-utf8": b'{"n": \x80}',
}


def dense_ladders(n: int, cutoff: int) -> list[np.ndarray]:
    """Dense annihilation operators of n modes at ``cutoff`` levels each.

    (a)_{m, m+1} = sqrt(m + 1) on mode j, identity on the others, mode 1
    the leftmost Kronecker factor: the reference for the oracle's sparse
    ladders and readout.
    """
    a1 = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)
    return [
        np.kron(np.kron(np.eye(cutoff**j), a1), np.eye(cutoff ** (n - j - 1)))
        for j in range(n)
    ]


def normal_covariance(a, rho):
    """Dense <: b_r b_s :> of ``rho`` in block layout, from dense ladders ``a``."""
    n = len(a)
    ad = [m.conj().T for m in a]
    def table(f):
        return np.array([[np.trace(f(j, k) @ rho) for k in range(n)] for j in range(n)])

    pair_aa = table(lambda j, k: a[j] @ a[k])
    pair_adad = table(lambda j, k: ad[j] @ ad[k])
    normal_ad_a = table(lambda j, k: ad[k] @ a[j])  # <a†_k a_j>
    return np.block([[pair_aa, normal_ad_a], [normal_ad_a.T, pair_adad]])


def multiset_max_delta(a, b):
    """Largest pairwise distance under the optimal matching of two multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def fit_decay_slope(times, values):
    """Least-squares slope s of log(values) ~ -s * t."""
    times = np.asarray(times, dtype=float)
    logs = np.log(np.asarray(values, dtype=float))
    A = np.vstack([times, np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    return -coef[0]


@pytest.fixture
def sec4():
    return sec4_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
