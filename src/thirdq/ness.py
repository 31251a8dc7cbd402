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
stable or not.  The block is scaled to 1-norm at most 3/2, within reach of a
diagonal Pade approximant of degree 9 or less (Higham, SIAM J. Matrix Anal.
Appl. 26:1179, 2005), so the step needs numpy alone.
:func:`moment_steps` is the one propagator: given the arrays
``g``, ``C0`` and ``m0``, it yields ``(C, m)`` one time of a uniform grid at
a time, and a caller that wants the whole grid stacks the steps.  It refuses
a bad grid, initial moments or source of the wrong size or not finite, and
a non-symmetric ``C0`` as bad input, and overflowing moments as a numerical
error, naming the covariance first wherever on the grid it overflows.  Both
rate constants are certified against the brute-force oracle in the test
suite.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import (
    AsymmetricZ,
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NonSymmetricInitial,
    NotStable,
    NumericalError,
)
from .model import BosonicModel, as_complex, deviation, float_scale, uniform_grid
from .spectral import RapiditySpectrum, Stability

Z_SYMMETRY_TOL = 1e-8  # |Z - Z^T|_F relative to max(1, |Z|_F)


@dataclass(frozen=True)
class NessSolution:
    """Steady-state correlators in mode (not block) indexing."""

    Z: np.ndarray
    pair_aa: np.ndarray
    pair_adad: np.ndarray
    normal_ad_a: np.ndarray
    occupations: np.ndarray


def physical_correlators(Z: np.ndarray, n: int) -> NessSolution:
    """Slice Z into <a a>, <a† a>, <a† a†> blocks and mode occupations."""
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (2 * n, 2 * n):
        raise AsymmetricZ(f"Z must be {2 * n}x{2 * n}, got {Z.shape}")
    dev, too_large = deviation(Z, Z.T, Z_SYMMETRY_TOL)
    if too_large:
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
    and is therefore invariant under any permutation of the four slots.  A
    ``Z`` that is not a square matrix is refused with
    :class:`DimensionMismatch`, a slot outside it with :class:`IndexOutOfRange`.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionMismatch(f"Z must be a square matrix, got shape {Z.shape}")
    idx = list(indices)
    if len(idx) != 4:
        raise IndexOutOfRange(f"expected 4 correlator slots, got {len(idx)}")
    dim = Z.shape[0]
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise IndexOutOfRange(f"slot {i!r} is not an integer")
        if not (0 <= i < dim):
            raise IndexOutOfRange(f"slot {i} outside 0..{dim - 1}")
    p, q, r, s = (int(i) for i in idx)
    return complex(Z[p, q] * Z[r, s] + Z[p, r] * Z[q, s] + Z[p, s] * Z[q, r])


def require_state_moments(C0: np.ndarray, m0: np.ndarray) -> None:
    """Refuse initial moments that no state has, with :class:`InputError`.

    ``m0`` holds <b_r> and ``C0`` the centred <:δb_r δb_s:> of δb = b - <b>,
    in the ordering of Z.  Both are judged on the matrices divided by
    :func:`~thirdq.model.float_scale`, to 1e-8 of max(1, |C0|_F) or
    max(1, |m0|), so that entries near the float limit are judged too.
    """
    two_n = len(C0)
    # every state has <a†> = conj(<a>), a Hermitian <a† a> and
    # <a† a†> = conj(<a a>): the moments equal their conjugates with the
    # a and a† halves swapped
    swap = np.roll(np.arange(two_n), two_n // 2)
    for name, A, B in (("C0", C0, C0[swap][:, swap].conj()), ("m0", m0, m0[swap].conj())):
        dev, too_large = deviation(A, B, 1e-8)
        if too_large:
            raise InputError(
                f"{name} is not the moments of any state: it deviates from its "
                f"conjugate with a and a† swapped by {dev:.3e}"
            )
    # C0 holds the centred <:b_r b_s:>, so the Gram matrix <b_i† b_j> of the
    # centred b = (a, a†) is C0 with its rows' halves swapped plus the
    # commutator <[a_j, a†_j]> = 1 in the a a† block; a state's is positive
    # semidefinite
    s = float_scale(C0)
    gram = (C0[swap] + np.diag(np.repeat([0.0, 1.0], two_n // 2))) / s
    low = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]
    if low < -1e-8 * max(1.0 / s, np.linalg.norm(C0 / s)):
        raise InputError(
            "C0 is not the moments of any state: the matrix <b_i† b_j> of its "
            f"centred moments has the negative eigenvalue {float(low) * s:.3e}"
        )


# (theta_m, b_0..b_m) for the diagonal Pade approximants of degree m = 3, 5,
# 7, 9: up to |A|_1 <= theta_m the degree-m approximant is expm(A) to double
# precision (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005, Table 2.3),
# and its numerator has the coefficients b_j = (2m - j)! / ((m - j)! j!)
_PADE = tuple(
    (theta, [factorial(2 * m - j) // factorial(m - j) // factorial(j) for j in range(m + 1)])
    for m, theta in (
        (3, 1.495585217958292e-2),
        (5, 2.539398330063230e-1),
        (7, 9.504178996162932e-1),
        (9, 2.097847961257068e0),
    )
)


def _pade_expm(A: np.ndarray) -> np.ndarray:
    """expm(A) for |A|_1 <= theta_9 = 2.098, with no scaling and squaring.

    Takes the lowest degree m in {3, 5, 7, 9} whose theta_m covers |A|_1 and
    returns (V - U)^-1 (V + U), U and V the odd and even parts of the
    degree-m numerator.
    """
    norm = np.abs(A).sum(axis=0).max()
    b = next((b for theta, b in _PADE if norm <= theta), _PADE[-1][1])
    A2 = A @ A
    even = [np.eye(len(A), dtype=A.dtype), A2]  # I, A^2, ..., A^(m-1)
    while len(even) < len(b) // 2:
        even.append(even[-1] @ A2)
    U = A @ sum(c * P for c, P in zip(b[1::2], even))
    V = sum(c * P for c, P in zip(b[::2], even))
    return np.linalg.solve(V - U, V + U)


def _halved(part: np.ndarray) -> tuple[np.ndarray, int]:
    """``part / 2^p``, p >= 0 the least power that takes its 1-norm below 1/2 (1 at 0)."""
    p = max(0, int(np.frexp(np.abs(part).sum(axis=0).max())[1]) + 1)
    return np.ldexp(1.0, -p) * part, p


def _moment_step(X: np.ndarray, Y: np.ndarray, g: np.ndarray, h: float):
    """One step of both flows: C(t+h) = F^T C F + Q and m(t+h) = F^T m + b.

    F = expm(-2 X h), Q = 2 int_0^h F(s)^T Y F(s) ds, b = int_0^h F(s)^T g ds.
    expm(tau [[2 X^T, 2 Y, 0], [0, -2 X, 0], [0, g^T, 0]]) holds F(tau) in
    the middle, F(tau)^-T Q(tau) above it and b(tau)^T below it at
    tau = h / 2^s, 2 max(|X|_1, |X|_inf) tau <= 1/2; s doublings then reach
    h without the growing expm(2 X^T h) that would swamp Q at large h.  Q is
    linear in Y and b in g, so the block holds Y and g divided by powers of
    two that bring each part below 1-norm 1/2, and Q and b are multiplied back:
    both steps are exact.  The block's 1-norm is then at most 3/2, below
    theta_9, so :func:`_pade_expm` needs no squaring of its own (Higham,
    SIAM J. Matrix Anal. Appl. 26:1179, 2005); the doublings are the only
    squaring, and scaling by the whole block's norm would let a huge g wash
    the X part out of it.
    """
    m = X.shape[0]
    # the columns of the X^T part sum to X's row sums
    norm = 4.0 * max(np.abs(X).sum(axis=0).max(), np.abs(X).sum(axis=1).max()) * h
    if not np.isfinite(norm):
        raise NumericalError("covariance overflows the float range on this grid")
    s = int(np.ceil(np.log2(max(norm, 1.0))))  # at most 1024
    tau = np.ldexp(h, -s)  # h / 2^s without forming 2^s, no float at s = 1024
    Y_part, p = _halved(2.0 * tau * Y)
    g_part, q = _halved(tau * g[None, :])
    block = np.zeros((2 * m + 1, 2 * m + 1), dtype=complex)
    block[:m, :m] = 2.0 * tau * X.T
    block[:m, m : 2 * m] = Y_part
    block[m : 2 * m, m : 2 * m] = -2.0 * tau * X
    block[2 * m, m : 2 * m] = g_part[0]
    E = _pade_expm(block)
    F = E[m : 2 * m, m : 2 * m]
    # exact; 2^p is inf only once |2 tau Y|_1 reaches 2^1022, a Q near the
    # float limit, which is then refused as overflowing
    Q = np.ldexp(1.0, p) * (F.T @ E[:m, m : 2 * m])
    b = np.ldexp(1.0, q) * E[2 * m, m : 2 * m]
    for _ in range(s):
        Q = Q + F.T @ Q @ F
        b = b + F.T @ b
        F = F @ F
    return F, Q, b


def moment_steps(
    X: np.ndarray,
    Y: np.ndarray,
    g: np.ndarray,
    C0: np.ndarray,
    m0: np.ndarray,
    times,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Solve dC/dt = 2 (Y - X^T C - C X) and dm/dt = -2 X^T m + g on a uniform grid.

    Starts from C(0) = C0 and m(0) = m0 and yields ``(C, m)`` at each time in
    turn, one step of them alive; each yielded pair is a fresh array.  Exact
    for any spectrum of X: one propagator step from 0 to the first time,
    then one per grid interval.  Refusals come as the steps are drawn, all
    of them :class:`InputError` until the first step: at the first draw, a
    grid that is not real numbers, non-negative, ascending and uniform,
    then a ``C0``, ``m0`` or ``g`` that is not numbers, not finite or not
    the size of X
    (:class:`DimensionMismatch`), then a ``C0`` that is not symmetric
    (:class:`NonSymmetricInitial`); then :class:`NumericalError` for an
    overflowing covariance at its step and for overflowing means after the
    last step, so that a covariance that overflows anywhere on the grid is
    named first.
    """
    # overflow is refused below, so numpy's warnings are off for each step's
    # arithmetic, and never across a yield
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.asarray(X, dtype=complex)
        Y = np.asarray(Y, dtype=complex)
        times, h = uniform_grid(times)
        two_n = len(X)
        C = as_complex(C0, (two_n, two_n), "C0")
        m = as_complex(m0, (two_n,), "m0")
        g = as_complex(g, (two_n,), "g")
        dev, too_large = deviation(C, C.T, 1e-8)
        if too_large:
            raise NonSymmetricInitial(f"C0 deviates from symmetry by {dev:.3e}")
        C = (C + C.T) / 2
        F, Q, b = _moment_step(X, Y, g, float(times[0]))
    means_finite = True
    for i in range(times.size):
        with np.errstate(over="ignore", invalid="ignore"):
            if i == 1:
                F, Q, b = _moment_step(X, Y, g, h)
            C = F.T @ C @ F + Q
            C = (C + C.T) / 2
            m = F.T @ m + b
            if not np.isfinite(C).all():
                raise NumericalError("covariance overflows the float range on this grid")
            means_finite = means_finite and bool(np.isfinite(m).all())
        yield C, m
    if not means_finite:
        raise NumericalError("means overflow the float range on this grid")


def mean_source(model: BosonicModel) -> np.ndarray:
    """Assemble the first-moment source g from forces and channel offsets."""
    g_a = -1j * model.forces.conj()
    for l_mu, k_mu, lam in zip(model.l, model.k, model.offsets):
        g_a = g_a + np.conj(lam) * k_mu - lam * l_mu.conj()
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
