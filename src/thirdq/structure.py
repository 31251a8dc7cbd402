"""Quadratic-form representation of the Liouvillean: the matrices X, Y.

Index convention, used by every downstream module: the 2n-dimensional
row/column space is split into two n-blocks, (block 0 first, then block 1),
matching the operator vector b = (a_1..a_n, a†_1..a†_n) for observables and
the corresponding adjoint-map ordering for the generator itself.

With the bath matrices M, N, L of :mod:`thirdq.model`,

    X = 1/2 [[ i conj(H) - conj(N) + M ,  -2i K - L + L^T        ],
             [ 2i conj(K) - conj(L) + conj(L)^T ,  -i H - N + conj(M) ]]

    Y = 1/2 [[ -2i conj(K) - conj(L) - conj(L)^T ,  2 N  ],
             [ 2 N^T ,  2i K - L - L^T ]]

Y is complex symmetric; X satisfies trace(X) = trace(M) - trace(N).  Both
blocks obey the conjugate pattern [[A, B], [conj(B), conj(A)]], which makes
them unitarily similar to real matrices (see :func:`realify`) and forces the
eigenvalues of X into complex-conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRealSimilar, NumericalError
from .model import BosonicModel, bath_matrices, float_scale


@dataclass(frozen=True)
class StructureMatrices:
    """The 2n x 2n generator matrices and the reordering constant."""

    X: np.ndarray
    Y: np.ndarray
    S0: complex


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def build_structure(model: BosonicModel) -> StructureMatrices:
    """Assemble X, Y and S0 = trace(M) - trace(N) from a validated model."""
    n = model.n
    bath = bath_matrices(model.l, model.k)
    M, N, L = bath.M, bath.N, bath.L
    H, K = model.H, model.K

    X = 0.5 * np.block(
        [
            [1j * H.conj() - N.conj() + M, -2j * K - L + L.T],
            [2j * K.conj() - L.conj() + L.conj().T, -1j * H - N + M.conj()],
        ]
    )
    Y = 0.5 * np.block(
        [
            [-2j * K.conj() - L.conj() - L.conj().T, 2 * N],
            [2 * N.T, 2j * K - L - L.T],
        ]
    )
    Y = (Y + Y.T) / 2
    S0 = complex(np.trace(M) - np.trace(N))
    if not (np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(S0)):
        raise NumericalError("X, Y or S0 overflows the float range")
    return StructureMatrices(X=X, Y=Y, S0=S0)


def realify(A: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Return the real matrix U A U^-1 with U = (I + i sigma_x)/sqrt(2) (x) I.

    Valid only for matrices with the conjugate block pattern
    [[A11, A12], [conj(A12), conj(A11)]] that X and Y carry by construction;
    anything else leaves an imaginary remainder and raises
    :class:`NotRealSimilar`.  That remainder, |Im(U A U^-1)|_F, equals
    |A - S conj(A) S|_F / 2 with S = sigma_x (x) I, and the real part is read
    off the blocks of the nearest patterned matrix, A = (A11 + conj(A22))/2
    and B = (A12 + conj(A21))/2, as

        [[Re A + Im B, Re B + Im A], [Re B - Im A, Re A - Im B]],

    with no product with U, so a patterned input maps exactly.
    :func:`thirdq.spectral.rapidities` diagonalizes X in this real form.
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[0]
    if A.shape != (m, m) or m % 2 != 0:
        raise NotRealSimilar(f"expected an even-dimensional square matrix, got {A.shape}")
    n = m // 2
    lower = A[n:, [*range(n, m), *range(n)]].conj()  # [conj(A22), conj(A21)]
    upper = A[:n]  # [A11, A12]
    # judged on A / s, an exact division, so that no norm overflows
    s = float_scale(A)
    rem = np.linalg.norm(upper / s - lower / s) / np.sqrt(2.0)
    if rem > tol * max(1.0 / s, np.linalg.norm(A / s)):
        raise NotRealSimilar(
            f"imaginary remainder {rem * s:.3e} exceeds tolerance; "
            "matrix does not have the conjugate block structure"
        )
    top = (upper + lower) / 2  # [A, B] of the nearest patterned matrix
    a, b = top[:, :n], top[:, n:]
    R = np.empty((m, m))
    R[:n, :n] = a.real + b.imag
    R[:n, n:] = b.real + a.imag
    R[n:, :n] = b.real - a.imag
    R[n:, n:] = a.real - b.imag
    return R
