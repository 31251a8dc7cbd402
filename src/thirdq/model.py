"""Problem statement types: modes, Hamiltonian matrices, bath channels.

A problem instance is an ``n``-mode bosonic system with Hamiltonian

    H = a† . H a + a . K a + a† . conj(K) a†   (+ optional linear forces)

driven by bath channels with jump operators ``L_mu = l_mu . a + k_mu . a†``
(+ optional scalar offsets).  The channel vectors are accumulated into the
three n x n bath matrices

    M = sum_mu l_mu (x) conj(l_mu)
    N = sum_mu k_mu (x) conj(k_mu)
    L = sum_mu l_mu (x) conj(k_mu)

where ``(x (y) conj(z))_{jk} = y_j conj(z_k)``.  M and N are Hermitian and
positive semidefinite by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HermiticityViolation, SymmetryViolation

DEFAULT_TOL_INPUT = 1e-9


def as_complex_matrix(A, n, name):
    """A copy of ``A`` as a finite complex n x n matrix, else :class:`DimensionMismatch`."""
    A = np.array(A, dtype=complex)  # copy: the result may be frozen
    if A.shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n}x{n}, got {A.shape}")
    if not np.all(np.isfinite(A.view(float))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return A


def as_complex_vector(v, n, name):
    """A copy of ``v`` as a finite complex n-vector, else :class:`DimensionMismatch`."""
    v = np.array(v, dtype=complex)  # copy: the result may be frozen
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return v


def _channel_rows(vectors: list, n: int) -> np.ndarray | None:
    """A copy of ``vectors`` as the rows of a finite complex array, else None.

    None means some vector is not a finite complex n-vector;
    :func:`as_complex_vector` then names it.
    """
    if not vectors:
        return np.empty((0, n), dtype=complex)
    try:
        rows = np.array(vectors, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric, 10**400
        return None
    if rows.shape != (len(vectors), n) or not np.isfinite(rows.view(float)).all():
        return None
    return rows


@dataclass(frozen=True)
class LindbladChannel:
    """One bath coupling: jump operator l . a + k . a† (+ offset * identity).

    In a validated model ``l`` and ``k`` are read-only rows of two arrays
    that stack the vectors of every channel.
    """

    l: np.ndarray
    k: np.ndarray
    offset: complex = 0j


@dataclass(frozen=True)
class BathMatrices:
    """Channel vectors accumulated into the M, N, L coupling matrices."""

    M: np.ndarray
    N: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class BosonicModel:
    """A validated quadratic bosonic open system.

    Instances are immutable after :func:`validate_model`; the arrays are
    marked read-only so a model can be shared across concurrent tasks.
    """

    n: int
    H: np.ndarray
    K: np.ndarray
    channels: tuple[LindbladChannel, ...]
    forces: np.ndarray | None = None
    repaired: bool = field(default=False, compare=False)

    @property
    def channel_offsets(self) -> np.ndarray:
        return np.array([c.offset for c in self.channels], dtype=complex)

    @property
    def has_linear_terms(self) -> bool:
        return (self.forces is not None and np.any(self.forces != 0)) or bool(
            np.any(self.channel_offsets != 0)
        )


def float_scale(A: np.ndarray) -> float:
    """A power of two near the largest real or imaginary part of ``A``, at least 1.

    Dividing by it is exact and leaves every part below 2 in magnitude, so
    norms and eigenvalues of the quotient do not overflow when the entries
    are near the float limit.
    """
    parts = np.ascontiguousarray(A).view(float)
    return float(np.ldexp(1.0, np.frexp(np.abs(parts).max(initial=1.0))[1] - 1))


def deviation(A: np.ndarray, B: np.ndarray, tol: float) -> tuple[float, bool]:
    """|A - B|_F, and whether it exceeds ``tol * max(1, |A|_F)``.

    Both norms are taken on the matrices divided by :func:`float_scale` of
    ``A``.  The division is exact, so the verdict is that of the unscaled
    norms, but neither norm overflows when the entries are near the float
    limit (the returned deviation is then ``inf``).
    """
    s = float_scale(A)
    dev = np.linalg.norm(A / s - B / s)
    return float(dev) * s, bool(dev > tol * max(1.0 / s, np.linalg.norm(A / s)))


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def validate_model(
    n: int,
    H,
    K=None,
    channels=(),
    forces=None,
    tol_input: float = DEFAULT_TOL_INPUT,
) -> BosonicModel:
    """Validate and normalize a problem statement.

    H must be Hermitian and K symmetric up to a relative deviation of
    ``tol_input`` (measured in the Frobenius norm against ``max(1, |A|_F)``);
    deviations below the tolerance are repaired by averaging, larger ones are
    rejected.  File round-trips introduce last-ulp noise, which is why the
    near-symmetric case is repaired rather than refused.
    """
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    H = as_complex_matrix(H, n, "H")
    K = as_complex_matrix(K if K is not None else np.zeros((n, n)), n, "K")

    dev_h, too_large = deviation(H, H.conj().T, tol_input)
    if too_large:
        raise HermiticityViolation(
            f"H deviates from Hermiticity by {dev_h:.3e} (tol {tol_input:.1e})"
        )
    dev_k, too_large = deviation(K, K.T, tol_input)
    if too_large:
        raise SymmetryViolation(
            f"K deviates from symmetry by {dev_k:.3e} (tol {tol_input:.1e})"
        )
    repaired = bool(dev_h > 0.0 or dev_k > 0.0)
    H = (H + H.conj().T) / 2
    K = (K + K.T) / 2
    for name, A in (("H", H), ("K", K)):
        if not np.isfinite(A).all():
            raise DimensionMismatch(f"{name} overflows the float range when symmetrized")

    channels = [
        ch if isinstance(ch, LindbladChannel) else LindbladChannel(*ch[:3])
        for ch in channels
    ]
    ls, ks = [ch.l for ch in channels], [ch.k for ch in channels]
    l_rows, k_rows = _channel_rows(ls, n), _channel_rows(ks, n)
    if l_rows is None or k_rows is None:
        # the per-channel walk names the first bad vector
        for i in range(len(ls)):
            ls[i] = as_complex_vector(ls[i], n, f"channels[{i}].l")
            ks[i] = as_complex_vector(ks[i], n, f"channels[{i}].k")
        l_rows, k_rows = _channel_rows(ls, n), _channel_rows(ks, n)
    l_rows.setflags(write=False)
    k_rows.setflags(write=False)
    channels = tuple(
        LindbladChannel(l=l, k=k, offset=complex(ch.offset))
        for l, k, ch in zip(l_rows, k_rows, channels)
    )

    if forces is not None:
        forces = as_complex_vector(forces, n, "forces")
        forces.setflags(write=False)

    H.setflags(write=False)
    K.setflags(write=False)
    return BosonicModel(
        n=n,
        H=H,
        K=K,
        channels=channels,
        forces=forces,
        repaired=repaired,
    )


def bath_matrices(channels, n: int) -> BathMatrices:
    """Accumulate the vectors of validated channels into the bath matrices M, N, L.

    M and N are re-Hermitized after accumulation so that they are Hermitian
    exactly, not only up to roundoff.
    """
    M = np.zeros((n, n), dtype=complex)
    N = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    # a zero vector adds only signed zeros, which leave every entry of a sum
    # that starts at +0.0 unchanged, so skipping it is exact
    for ch in channels:
        has_l, has_k = ch.l.any(), ch.k.any()
        if has_l:
            M += np.outer(ch.l, ch.l.conj())
        if has_k:
            N += np.outer(ch.k, ch.k.conj())
        if has_l and has_k:
            L += np.outer(ch.l, ch.k.conj())
    M = (M + M.conj().T) / 2
    N = (N + N.conj().T) / 2
    return BathMatrices(M=M, N=N, L=L)
