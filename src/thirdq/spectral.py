"""Spectrum of X: rapidities, stability, decay modes, symplectic eigenbasis.

The 2n eigenvalues of X (the rapidities) determine everything spectral about
the generator: the flow is relaxing exactly when all rapidities lie strictly
to the right of the imaginary axis, and the full point spectrum of decay
modes is the lattice

    lambda_m = -2 sum_r m_r beta_r,    m in Z+^{2n}.

Rapidities within ``tol_marginal`` of the imaginary axis are classified
Marginal; the steady-state machinery refuses such spectra because the
defining Lyapunov equation loses uniqueness when beta_j + beta_k = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffTooLarge,
    DefectiveX,
    InputError,
    NotStable,
    SymplecticityViolation,
)
from .structure import StructureMatrices, realify

DEFAULT_TOL_MARGINAL = 1e-10
COND_DEFECTIVE = 1e12
COND_WARN = 1e8
COUNT_LIMIT = 1_000_000
# build_V's certificates: V^T J V = J and the normal form of J S
TOL_SYMPLECTIC = 1e-9
TOL_SIMILARITY = 1e-8


class Stability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class RapiditySpectrum:
    """Eigendecomposition X = P diag(beta) P^-1 with deterministic ordering.

    ``stability`` is the verdict of :func:`classify_stability` with the
    Marginal half-width ``tol_marginal``; every later stage reads both from
    here instead of classifying again.
    """

    beta: np.ndarray
    P: np.ndarray
    cond_P: float
    stability: Stability
    tol_marginal: float


@dataclass(frozen=True)
class DecaySpectrum:
    """The decay-mode lattice as two aligned tables, slowest mode first.

    ``m`` is the ``(count, 2n)`` table of multi-indices in the smallest
    unsigned integer dtype that holds the cutoff; ``lam`` holds the
    ``(count,)`` complex rates lambda_m of its rows.
    """

    m: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.lam.size


def classify_stability(beta, tol_marginal: float = DEFAULT_TOL_MARGINAL) -> Stability:
    """Sign test on the real parts with a Marginal band of width tol_marginal."""
    beta = np.asarray(beta, dtype=complex)
    if np.all(beta.real > tol_marginal):
        return Stability.STABLE
    if np.any(beta.real < -tol_marginal):
        return Stability.UNSTABLE
    return Stability.MARGINAL


def rapidities(X: np.ndarray, tol_marginal: float = DEFAULT_TOL_MARGINAL) -> RapiditySpectrum:
    """Diagonalize X through its real form and classify the spectrum.

    Real LAPACK ``eig`` of X_r = U X U^-1 (:func:`~thirdq.structure.realify`)
    returns each conjugate pair exactly: equal real parts, opposite
    imaginary parts.  Sorting by (Re ascending, Im ascending) so reports are
    reproducible therefore fixes the order within each pair; two different
    pairs whose real parts tie to rounding can still come in either order.
    The eigenvector columns are permuted to match and mapped back
    elementwise, P = U^-1 P_r.  ``cond_P`` is the 2-norm condition number of
    the real matrix of the real eigenvectors and of sqrt(2) Re v, sqrt(2) Im v
    for the member v of each pair with Im beta > 0, which P equals up to
    unitary factors.  At an exceptional point it may be ``inf``; stages that
    need the eigenbasis refuse through :func:`require_diagonalizable`.
    """
    beta, P_r = np.linalg.eig(realify(X))
    upper = beta.imag > 0
    basis = np.hstack(
        [
            P_r[:, beta.imag == 0].real,
            np.sqrt(2.0) * P_r[:, upper].real,
            np.sqrt(2.0) * P_r[:, upper].imag,
        ]
    )
    order = np.lexsort((beta.imag, beta.real))
    beta = beta[order].astype(complex)
    P_r = P_r[:, order]
    n = len(P_r) // 2
    top, bottom = P_r[:n], P_r[n:]
    P = np.sqrt(0.5) * np.vstack([top - 1j * bottom, bottom - 1j * top])
    return RapiditySpectrum(
        beta=beta,
        P=P,
        cond_P=float(np.linalg.cond(basis)),
        stability=classify_stability(beta, tol_marginal),
        tol_marginal=tol_marginal,
    )


def require_diagonalizable(cond_P: float) -> None:
    """Refuse an eigenvector matrix P with cond(P) above ``COND_DEFECTIVE``.

    The stages that print or invert the eigenbasis (``analyze``,
    ``spectrum``, ``sweep`` and :func:`build_V`) call this; the Lyapunov
    solve and the moment dynamics do not need the eigenbasis.
    """
    if not cond_P <= COND_DEFECTIVE:
        raise DefectiveX(
            f"X not diagonalizable within tolerance (cond(P) = {cond_P:.3e})"
        )


def spectral_gap(spectrum: RapiditySpectrum) -> float:
    """Slowest relaxation rate, 2 min Re beta.  Requires a Stable spectrum."""
    if spectrum.stability is not Stability.STABLE:
        raise NotStable("spectral gap is only defined for a Stable spectrum")
    return float(2.0 * spectrum.beta.real.min())


def liouville_spectrum(
    spectrum: RapiditySpectrum,
    max_total_excitation: int,
    count_limit: int = COUNT_LIMIT,
) -> DecaySpectrum:
    """Enumerate decay modes lambda_m = -2 m . beta with sum(m) <= cutoff.

    Modes are returned slowest-first (Re lambda descending), ties broken by
    lexicographic multi-index.  The zero multi-index is the steady state,
    lambda = 0.  A negative cutoff raises :class:`InputError`, a spectrum
    that is not Stable :class:`NotStable`, and an enumeration larger than
    ``count_limit`` :class:`CutoffTooLarge`, each before any table is
    allocated.

    The lattice is grown from the last slot to the first.  Each slot r is
    prepended, value by value in ascending order, to every suffix whose sum
    still fits, so the rows come out in lexicographic order and one stable
    sort on Re lambda gives the final order; each row keeps only its value
    and the index of its suffix until the sorted table is read back along
    those links.  Summation rule: the rate of a row is
    -2 (m_1 beta_1 + (m_2 beta_2 + (... + m_{2n} beta_{2n}))), each product
    and sum a complex operation.  At a cutoff of 2 or less a rate has at
    most two nonzero terms, so every summation order gives these bits.
    """
    if max_total_excitation < 0:
        raise InputError("max_total_excitation must be >= 0")
    if spectrum.stability is not Stability.STABLE:
        raise NotStable("decay-mode spectrum requires a Stable rapidity spectrum")
    beta = spectrum.beta
    slots = beta.size
    cutoff = max_total_excitation
    count = math.comb(slots + cutoff, slots)
    if count > count_limit:
        raise CutoffTooLarge(
            f"enumeration would produce {count} modes (limit {count_limit})"
        )
    values = np.arange(cutoff + 1, dtype=np.min_scalar_type(cutoff))
    total = values
    dot = values * beta[-1]  # m . beta of every suffix
    links = []  # (value, suffix index) of every row, one pair per prepended slot
    for b in beta[-2::-1]:
        fits = [np.flatnonzero(total <= cutoff - v) for v in values]
        suffix = np.concatenate(fits)
        value = np.repeat(values, [f.size for f in fits])
        total = value + total[suffix]
        dot = value * b + dot[suffix]
        links.append((value, suffix))
    lam = -2.0 * dot
    order = np.argsort(-lam.real, kind="stable")
    columns = np.empty((slots, count), dtype=values.dtype)
    row = np.arange(count)
    for j in range(slots - 1):
        value, suffix = links.pop()  # the first slot's link, freed once read
        columns[j] = value[row]
        row = suffix[row]
    columns[-1] = row
    return DecaySpectrum(m=columns.T[order], lam=lam[order])


def _symplectic_unit(two_n: int) -> np.ndarray:
    J = np.zeros((2 * two_n, 2 * two_n), dtype=complex)
    J[:two_n, two_n:] = np.eye(two_n)
    J[two_n:, :two_n] = -np.eye(two_n)
    return J


def build_V(
    P: np.ndarray,
    Z: np.ndarray,
    structure: StructureMatrices | None = None,
    beta=None,
) -> np.ndarray:
    """Assemble the symplectic eigenvector matrix V = (P^T (+) P^-1) [[I, -Z], [0, I]].

    V is certified against V^T J V = J with J = i sigma_y (x) I, to
    ``TOL_SYMPLECTIC`` max(1, |Z|_F).  When the structure matrices and
    rapidities are supplied, the block matrix J S = [[-X^T, Y], [0, X]] is
    additionally checked to be similar to (-Delta) (+) Delta under V, to
    ``TOL_SIMILARITY`` max(1, |J S|_F); failure of either check flags an
    inconsistent (X, Z) pair.  A P with cond(P) above ``COND_DEFECTIVE`` is
    refused first (:func:`require_diagonalizable`).
    """
    P = np.asarray(P, dtype=complex)
    Z = np.asarray(Z, dtype=complex)
    require_diagonalizable(float(np.linalg.cond(P)))
    two_n = P.shape[0]
    Pinv = np.linalg.inv(P)
    V = np.zeros((2 * two_n, 2 * two_n), dtype=complex)
    V[:two_n, :two_n] = P.T
    V[:two_n, two_n:] = -P.T @ Z
    V[two_n:, two_n:] = Pinv

    J = _symplectic_unit(two_n)
    dev = np.linalg.norm(V.T @ J @ V - J)
    if dev > TOL_SYMPLECTIC * max(1.0, np.linalg.norm(Z)):
        raise SymplecticityViolation(
            f"V^T J V deviates from J by {dev:.3e}; Z is not symmetric "
            "or inconsistent with P"
        )

    if structure is not None and beta is not None:
        X, Y = structure.X, structure.Y
        beta = np.asarray(beta, dtype=complex)
        JS = np.zeros_like(V)
        JS[:two_n, :two_n] = -X.T
        JS[:two_n, two_n:] = Y
        JS[two_n:, two_n:] = X
        D = np.diag(np.concatenate([-beta, beta]))
        # V^-1 in closed block form; valid because Z passed the check above
        Vinv = np.zeros_like(V)
        Vinv[:two_n, :two_n] = np.linalg.inv(P.T)
        Vinv[:two_n, two_n:] = Z @ P
        Vinv[two_n:, two_n:] = P
        resid = np.linalg.norm(V @ JS @ Vinv - D)
        if resid > TOL_SIMILARITY * max(1.0, np.linalg.norm(JS)):
            raise SymplecticityViolation(
                f"V does not bring J S to normal form (residual {resid:.3e}); "
                "Z does not solve the Lyapunov equation for this X"
            )
    return V
