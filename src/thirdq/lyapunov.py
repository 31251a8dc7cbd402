"""Two independent solvers for the continuous Lyapunov equation

    X^T Z + Z X = Y,   Z = Z^T,

whose solution is the steady-state normal-ordered two-point correlator.

The equation has a unique solution iff no pair of eigenvalues of X sums to
zero; for a Stable rapidity spectrum this is automatic.  Two routes are kept
deliberately independent and every result carries a residual certificate:

``solve_eigenbasis``
    Reuses the eigendecomposition X = P diag(beta) P^-1: in the transformed
    frame the equation is diagonal, Zt_{jk} = (P^T Y P)_{jk} / (beta_j +
    beta_k).  Cheap (the diagonalization already exists) but loses accuracy
    when P is poorly conditioned.

``solve_schur``
    Bartels-Stewart: complex Schur form X = Q T Q† turns the equation into a
    triangular Sylvester system T^T W + W T = Q^T Y Q, solved by LAPACK
    ``ztrsyl``.  Backward stable regardless of eigenvector conditioning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IllConditioned, NotStable, NumericalError, ResonantSpectrum
from .spectral import (
    COND_WARN,
    DEFAULT_TOL_MARGINAL,
    RapiditySpectrum,
    Stability,
)

RESIDUAL_TOL = 1e-9


class Method(enum.Enum):
    EIGENBASIS = "Eigenbasis"
    SCHUR = "SchurBartelsStewart"


@dataclass(frozen=True)
class LyapunovSolution:
    """Symmetric solution Z with its certified residual.

    ``residual`` is |X^T Z + Z X - Y|_F / |Y|_F, or the absolute residual
    when Y = 0 (the unique solution of the homogeneous equation is Z = 0).
    """

    Z: np.ndarray
    residual: float
    method: Method


def residual_norm(X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> float:
    r = np.linalg.norm(X.T @ Z + Z @ X - Y)
    scale = np.linalg.norm(Y)
    return float(r / scale) if scale > 0 else float(r)


def solve_eigenbasis(
    X: np.ndarray,
    Y: np.ndarray,
    spectrum: RapiditySpectrum,
) -> LyapunovSolution:
    """Solve in the eigenbasis of X.

    Raises :class:`ResonantSpectrum` when some |beta_j + beta_k| falls below
    the spectrum's ``tol_marginal`` (no unique solution) and
    :class:`IllConditioned` when cond(P) exceeds ``COND_WARN``; callers
    should fall back to :func:`solve_schur` in the latter case.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    beta, P = spectrum.beta, spectrum.P
    denom = beta[:, None] + beta[None, :]
    min_sum = np.abs(denom).min()
    if min_sum < spectrum.tol_marginal:
        raise ResonantSpectrum(
            f"rapidity pair sums to {min_sum:.3e}; Lyapunov solution not unique"
        )
    if spectrum.cond_P > COND_WARN:
        raise IllConditioned(
            f"eigenvector matrix has cond(P) = {spectrum.cond_P:.3e} > {COND_WARN:.1e}"
        )
    Yt = P.T @ Y @ P
    Zt = Yt / denom
    Pinv = np.linalg.inv(P)
    Z = Pinv.T @ Zt @ Pinv
    Z = (Z + Z.T) / 2
    return LyapunovSolution(Z=Z, residual=residual_norm(X, Y, Z), method=Method.EIGENBASIS)


def solve_schur(
    X: np.ndarray,
    Y: np.ndarray,
    tol_marginal: float = DEFAULT_TOL_MARGINAL,
) -> LyapunovSolution:
    """Bartels-Stewart solve via the complex Schur form of X.

    The pivots of the triangular solve are T_jj + T_kk; a pivot below
    ``tol_marginal`` means the equation is singular (:class:`ResonantSpectrum`).
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    T, Q = scipy.linalg.schur(X, output="complex")
    t = np.diag(T)
    if np.abs(t[:, None] + t[None, :]).min() < tol_marginal:
        raise ResonantSpectrum(
            "Schur diagonal contains a zero pivot T_jj + T_kk; "
            "Lyapunov solution not unique"
        )
    G = Q.T @ Y @ Q
    # trana="C" on conj(T) gives op(A) = T^T: solves T^T W + W T = scale G
    W, scale, info = scipy.linalg.lapack.ztrsyl(T.conj(), T, G, trana="C")
    if info < 0:
        raise NumericalError(f"ztrsyl rejected argument {-info}")
    Z = Q.conj() @ (W / scale) @ Q.conj().T
    Z = (Z + Z.T) / 2
    return LyapunovSolution(Z=Z, residual=residual_norm(X, Y, Z), method=Method.SCHUR)


def solve(
    X: np.ndarray,
    Y: np.ndarray,
    spectrum: RapiditySpectrum,
    residual_tol: float = RESIDUAL_TOL,
) -> LyapunovSolution:
    """Certified solve: eigenbasis route first, Schur fallback.

    Refuses non-Stable spectra outright.  The Schur route takes over when
    the eigenbasis route is ill-conditioned or its certified residual misses
    ``residual_tol``; whichever certified residual is smaller wins.  A
    winner that still misses ``residual_tol`` raises :class:`NumericalError`.
    """
    if spectrum.stability is Stability.MARGINAL:
        raise NotStable("marginal spectrum: Lyapunov solution not unique")
    if spectrum.stability is Stability.UNSTABLE:
        raise NotStable("unstable spectrum: no steady state exists")
    try:
        sol = solve_eigenbasis(X, Y, spectrum)
    except IllConditioned:
        sol = solve_schur(X, Y, spectrum.tol_marginal)
    else:
        if sol.residual > residual_tol:
            fallback = solve_schur(X, Y, spectrum.tol_marginal)
            if fallback.residual < sol.residual:
                sol = fallback
    if sol.residual > residual_tol:
        raise NumericalError(
            f"Lyapunov residual {sol.residual:.3e} misses {residual_tol:.1e} "
            f"({sol.method.value} route)"
        )
    return sol
