"""Seeded model families for the benchmark.

Every family is built from numpy alone, so the inputs do not depend on the
code under test.  Each function takes a ``numpy.random.Generator`` and returns
a model document in the format of ``schemas/model.schema.json`` (complex
scalars as ``[re, im]`` pairs).

Stability is known by construction.  With local loss ``u_j`` and gain ``v_j``
in separate channels the Hermitian part of X is
``diag(u - v) / 2`` plus the squeezing block ``-iK``, so every rapidity has
``min(u - v) / 2 - |K|_2 <= Re beta <= max(u - v) / 2 + |K|_2`` and a passive
change of mode basis leaves the rapidities unchanged.
"""

from __future__ import annotations

import numpy as np


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _document(H, K, channels, forces=None) -> dict:
    """Assemble a model document; ``channels`` is a list of (l, k) vectors."""
    doc = {
        "n": int(H.shape[0]),
        "H": [_pairs(row) for row in H],
        "K": [_pairs(row) for row in K],
        "channels": [{"l": _pairs(l), "k": _pairs(k)} for l, k in channels],
    }
    if forces is not None:
        doc["forces"] = _pairs(forces)
    return doc


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _local_model(H, K, loss, gain, U=None, forces=None) -> dict:
    """Local loss/gain channels on modes a, written in the basis a = U b.

    a† H a -> b† (U† H U) b, a K a -> b (U^T K U) b, a jump l.a + k.a† keeps
    its form with l -> U^T l and k -> U† k, and a force f.a -> (U^T f).b.
    """
    n = H.shape[0]
    U = np.eye(n) if U is None else U
    eye = np.eye(n)
    zero = np.zeros(n)
    channels = []
    for j in range(n):
        if loss[j] > 0:
            channels.append((U.T @ (np.sqrt(loss[j]) * eye[j]), zero))
        if gain[j] > 0:
            channels.append((zero, U.conj().T @ (np.sqrt(gain[j]) * eye[j])))
    return _document(
        U.conj().T @ H @ U,
        U.T @ K @ U,
        channels,
        None if forces is None else U.T @ forces,
    )


def chain(
    rng: np.random.Generator, n: int, forces: bool = False, unstable: bool = False
) -> dict:
    """Hopping chain with local loss, gain and weak squeezing, in a random
    passive mode basis so that X is dense.

    Stable chains keep gain at 20-50% of loss and |K|_2 < 0.06, so
    Re beta >= 0.14.  Unstable chains put gain 0.1-0.2 above loss on every
    mode and keep |K|_2 < 0.02, so Re beta <= -0.03 for every rapidity while
    the growth over t = 10 stays finite.
    """
    omega = rng.uniform(0.8, 1.2, n)
    hop = rng.uniform(0.2, 0.4, n - 1)
    H = np.diag(omega) + np.diag(hop, 1) + np.diag(hop, -1)
    loss = rng.uniform(0.8, 1.2, n)
    if unstable:
        gain = loss + rng.uniform(0.1, 0.2, n)
        kappa = rng.uniform(0.005, 0.01, n)
    else:
        gain = loss * rng.uniform(0.2, 0.5, n)
        kappa = rng.uniform(0.01, 0.03, n)
    # |K|_2 <= max|kappa| + 2 max|kappa_nb| < 2 max|kappa|
    kappa_nb = 0.5 * kappa[:-1]
    K = np.diag(kappa) + np.diag(kappa_nb, 1) + np.diag(kappa_nb, -1)
    f = None
    if forces:
        f = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return _local_model(H, K, loss, gain, _random_unitary(rng, n), f)


def ep3_trimers(rng: np.random.Generator, n: int) -> dict:
    """Block-diagonal chain of ``n / 3`` trimers, each at a third-order
    exceptional point.

    A trimer has hopping J and losses (g0 + g, g0, g0 - g).  Its block of X
    is (i H + diag(loss)) / 2 = g0 / 2 + (i / 2)(H - i diag(g, 0, -g)), and the
    PT-symmetric trimer H - i diag(g, 0, -g) has a Jordan block of size 3 at
    g = sqrt(2) J.  Rounding splits the block by ~1e-16, which leaves
    cond(P) near 1e10: above the eigenbasis limit (1e8) and below the
    defective limit (1e12), so the Lyapunov solve takes the Schur route.
    Distinct frequencies per trimer keep the clusters apart.
    """
    if n % 3:
        raise ValueError(f"EP3 chains need n divisible by 3, got {n}")
    H = np.zeros((n, n))
    loss = np.zeros(n)
    for t in range(n // 3):
        s = slice(3 * t, 3 * t + 3)
        J = rng.uniform(0.2, 0.3)
        g = np.sqrt(2.0) * J
        g0 = g + rng.uniform(0.3, 0.5)
        H[s, s] = (1.0 + 0.37 * t) * np.eye(3) + J * (np.eye(3, k=1) + np.eye(3, k=-1))
        loss[s] = (g0 + g, g0, g0 - g)
    return _local_model(H, np.zeros((n, n)), loss, np.zeros(n))


def oscillator(rng: np.random.Generator, gain_ratio=(0.3, 0.45)) -> dict:
    """One damped, driven and squeezed oscillator like the README's osc.json.

    ``gain_ratio`` bounds v / u and with it the occupation, which sets the
    Fock cutoff a truncated-space check needs.
    """
    u = rng.uniform(0.9, 1.1)
    v = u * rng.uniform(*gain_ratio)
    w = rng.uniform(0.1, 0.3)  # cross term l0 conj(k0)
    k0 = w / np.sqrt(u)
    channels = [([np.sqrt(u)], [k0]), ([0.0], [np.sqrt(v - k0**2)])]
    H = np.array([[rng.uniform(0.8, 1.2)]])
    K = np.array([[rng.uniform(0.0, 0.05)]])
    return _document(H, K, channels)


def two_modes(rng: np.random.Generator) -> dict:
    """Two coupled lossy modes with weak gain: occupations near 0.1, so a
    Fock cutoff of 6 per mode holds the state to about 1e-5."""
    omega = rng.uniform(0.8, 1.2, 2)
    J = rng.uniform(0.2, 0.4)
    H = np.diag(omega) + J * np.array([[0.0, 1.0], [1.0, 0.0]])
    loss = rng.uniform(0.9, 1.1, 2)
    gain = loss * rng.uniform(0.05, 0.12, 2)
    K = np.diag(rng.uniform(0.0, 0.03, 2))
    return _local_model(H, K, loss, gain)
