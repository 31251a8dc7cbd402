"""Physical observables of the steady state and transient moment dynamics.

With the operator vector b = (a_1..a_n, a†_1..a†_n), the steady-state
normal-ordered correlator is exactly the Lyapunov solution,
<: b_r b_s :> = Z_{rs}.  Normal ordering puts creation operators on the
left, so the upper-right block holds <a†_k a_j>:

    Z[j, k]       = <a_j a_k>            (j, k < n)
    Z[j, n + k]   = <a†_k a_j>
    Z[n + j, n + k] = <a†_j a†_k>

The steady state is Gaussian; higher moments follow from pairings of Z
(:func:`wick_moment`).

Transient second moments obey dC/dt = 2 (Y - X^T C - C X), whose fixed point
is the Lyapunov solution.  First moments obey dm/dt = -2 X^T m + g with a
source assembled from linear forces f and channel offsets lambda_mu:

    g = ( -i conj(f) + sum_mu (conj(lambda_mu) k_mu - lambda_mu conj(l_mu)),
           i f       + sum_mu (lambda_mu conj(k_mu) - conj(lambda_mu) l_mu) ).

Both flows relax under the same X, so one block exponential (Van Loan, IEEE
Trans. Autom. Control 23:395, 1978) gives the exact step of both for any X,
stable or not, and :func:`moment_trajectory` carries them together.  Both
rate constants are certified against the brute-force oracle in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AsymmetricZ,
    IndexOutOfRange,
    InputError,
    NonSymmetricInitial,
    NotStable,
    NumericalError,
)
from .model import BosonicModel
from .spectral import RapiditySpectrum, Stability


@dataclass(frozen=True)
class NessSolution:
    """Steady-state correlators in mode (not block) indexing."""

    Z: np.ndarray
    pair_aa: np.ndarray
    pair_adad: np.ndarray
    normal_ad_a: np.ndarray
    occupations: np.ndarray


@dataclass(frozen=True)
class MomentTrajectory:
    """Covariances C (T, 2n, 2n) and first moments m (T, 2n) on a time grid."""

    times: np.ndarray
    C: np.ndarray
    m: np.ndarray


def physical_correlators(Z: np.ndarray, n: int, tol: float = 1e-8) -> NessSolution:
    """Slice Z into <a a>, <a† a>, <a† a†> blocks and mode occupations."""
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (2 * n, 2 * n):
        raise AsymmetricZ(f"Z must be {2 * n}x{2 * n}, got {Z.shape}")
    dev = np.linalg.norm(Z - Z.T)
    if dev > tol * max(1.0, np.linalg.norm(Z)):
        raise AsymmetricZ(f"Z deviates from symmetry by {dev:.3e}")
    pair_aa = Z[:n, :n].copy()
    normal_ad_a = Z[:n, n:].copy()  # entry (j, k) = <a†_k a_j>
    pair_adad = Z[n:, n:].copy()
    occupations = np.real(np.diag(normal_ad_a)).copy()
    return NessSolution(
        Z=Z,
        pair_aa=pair_aa,
        pair_adad=pair_adad,
        normal_ad_a=normal_ad_a,
        occupations=occupations,
    )


def wick_moment(Z: np.ndarray, indices) -> complex:
    """Normal-ordered 4-point moment <: b_p b_q b_r b_s :> of a Gaussian state.

    Equals the sum over the three pairings Z_pq Z_rs + Z_pr Z_qs + Z_ps Z_qr
    and is therefore invariant under any permutation of the four slots.
    """
    Z = np.asarray(Z, dtype=complex)
    idx = list(indices)
    if len(idx) != 4:
        raise IndexOutOfRange(f"expected 4 correlator slots, got {len(idx)}")
    dim = Z.shape[0]
    for i in idx:
        if not (0 <= int(i) < dim):
            raise IndexOutOfRange(f"slot {i} outside 0..{dim - 1}")
    p, q, r, s = (int(i) for i in idx)
    return complex(Z[p, q] * Z[r, s] + Z[p, r] * Z[q, s] + Z[p, s] * Z[q, r])


def _uniform_grid(times) -> tuple[np.ndarray, float]:
    """Return a non-empty, non-negative, ascending, uniform grid and its step."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InputError("times must be a non-empty 1-d array")
    if not np.isfinite(times).all():
        raise InputError("times must be finite")
    if times[0] < 0:
        raise InputError("times must be non-negative")
    steps = np.diff(times)
    if np.any(steps < 0):
        raise InputError("times must be sorted ascending")
    h = float(steps.mean()) if steps.size else 0.0
    if np.abs(steps - h).max(initial=0.0) > 1e-9 * max(1.0, np.abs(times).max()):
        raise InputError("times must form a uniform grid")
    return times, h


def _moment_step(X: np.ndarray, Y: np.ndarray, g: np.ndarray | None, h: float):
    """One step of both flows: C(t+h) = F^T C F + Q and m(t+h) = F^T m + b.

    F = expm(-2 X h), Q = 2 int_0^h F(s)^T Y F(s) ds, b = int_0^h F(s)^T g ds.
    expm(tau [[2 X^T, 2 Y, 0], [0, -2 X, 0], [0, g^T, 0]]) holds F(tau) in
    the middle, F(tau)^-T Q(tau) above it and b(tau)^T below it at
    tau = h / 2^s, 2 |X|_1 tau <= 1/2; s doublings then reach h without the
    growing expm(2 X^T h) that would swamp Q at large h.  Without a source
    the last row and column are left out and b = 0.
    """
    m = X.shape[0]
    norm = 4.0 * np.abs(X).sum(axis=0).max() * h
    if not np.isfinite(norm):
        raise NumericalError("covariance overflows the float range on this grid")
    s = int(np.ceil(np.log2(max(norm, 1.0))))  # at most 1024
    tau = np.ldexp(h, -s)  # h / 2^s without forming 2^s, no float at s = 1024
    size = 2 * m if g is None else 2 * m + 1
    block = np.zeros((size, size), dtype=complex)
    block[:m, :m] = 2.0 * tau * X.T
    block[:m, m : 2 * m] = 2.0 * tau * Y
    block[m : 2 * m, m : 2 * m] = -2.0 * tau * X
    if g is not None:
        block[2 * m, m : 2 * m] = tau * g
    E = scipy.linalg.expm(block)
    F = E[m : 2 * m, m : 2 * m]
    Q = F.T @ E[:m, m : 2 * m]
    b = np.zeros(m, dtype=complex) if g is None else E[2 * m, m : 2 * m]
    for _ in range(s):
        Q = Q + F.T @ Q @ F
        b = b + F.T @ b
        F = F @ F
    return F, Q, b


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def moment_trajectory(
    X: np.ndarray,
    Y: np.ndarray,
    g: np.ndarray | None,
    C0: np.ndarray,
    m0: np.ndarray | None,
    times,
) -> MomentTrajectory:
    """Solve dC/dt = 2 (Y - X^T C - C X) and dm/dt = -2 X^T m + g on a uniform grid.

    Starts from C(0) = C0 and m(0) = m0; ``g = None`` is no source and
    ``m0 = None`` the zero mean.  Exact for any spectrum of X: one
    propagator step from 0 to the first time, then one per grid interval.
    A grid that is not non-negative, ascending and uniform raises
    :class:`InputError`; moments that overflow raise :class:`NumericalError`,
    the covariance checked first.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    C0 = np.asarray(C0, dtype=complex)
    g = None if g is None else np.asarray(g, dtype=complex)
    m0 = np.zeros(len(X), dtype=complex) if m0 is None else np.asarray(m0, dtype=complex)
    times, h = _uniform_grid(times)
    dev = np.linalg.norm(C0 - C0.T)
    if dev > 1e-8 * max(1.0, np.linalg.norm(C0)):
        raise NonSymmetricInitial(f"C0 deviates from symmetry by {dev:.3e}")
    C0 = (C0 + C0.T) / 2

    F, Q, b = _moment_step(X, Y, g, float(times[0]))
    C = np.empty((times.size,) + C0.shape, dtype=complex)
    m = np.empty((times.size, m0.size), dtype=complex)
    Ci = F.T @ C0 @ F + Q
    C[0] = (Ci + Ci.T) / 2
    m[0] = F.T @ m0 + b
    F, Q, b = _moment_step(X, Y, g, h)
    for i in range(1, times.size):
        Ci = F.T @ C[i - 1] @ F + Q
        C[i] = (Ci + Ci.T) / 2
        m[i] = F.T @ m[i - 1] + b
    if not np.isfinite(C).all():
        raise NumericalError("covariance overflows the float range on this grid")
    if not np.isfinite(m).all():
        raise NumericalError("means overflow the float range on this grid")
    return MomentTrajectory(times=times, C=C, m=m)


def mean_source(model: BosonicModel) -> np.ndarray:
    """Assemble the first-moment source g from forces and channel offsets."""
    n = model.n
    f = model.forces if model.forces is not None else np.zeros(n, dtype=complex)
    g_a = -1j * f.conj()
    for ch in model.channels:
        lam = complex(ch.offset)
        g_a = g_a + np.conj(lam) * ch.k - lam * ch.l.conj()
    return np.concatenate([g_a, g_a.conj()])


def steady_mean(X: np.ndarray, g: np.ndarray, spectrum: RapiditySpectrum) -> np.ndarray:
    """Fixed point of the mean flow, solving 2 X^T m = g.

    ``spectrum`` holds the rapidities of ``X``; a non-Stable one is refused.
    """
    X = np.asarray(X, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if spectrum.stability is not Stability.STABLE:
        raise NotStable("steady mean requires a Stable spectrum")
    return np.linalg.solve(2.0 * X.T, g)
