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

from .errors import DimensionMismatch, HermiticityViolation, InputError, SymmetryViolation

DEFAULT_TOL_INPUT = 1e-9


def as_complex(A, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A copy of ``A`` as a finite complex array of ``shape``, else :class:`DimensionMismatch`."""
    try:
        A = np.array(A, dtype=complex)  # copy: the result may be frozen
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric, 10**400
        raise DimensionMismatch(f"{name} is not an array of numbers") from None
    if A.shape != shape:
        want = f"be {'x'.join(map(str, shape))}" if len(shape) > 1 else f"have length {shape[0]}"
        raise DimensionMismatch(f"{name} must {want}, got {A.shape}")
    if not np.all(np.isfinite(A.view(float))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return A


def uniform_grid(times) -> tuple[np.ndarray, float]:
    """A non-empty, non-negative, ascending, uniform grid and its step, else :class:`InputError`."""
    try:
        times = np.asarray(times, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError("times must be an array of real numbers") from None
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


@dataclass(frozen=True)
class BathMatrices:
    """Channel vectors accumulated into the M, N, L coupling matrices."""

    M: np.ndarray
    N: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class BosonicModel:
    """A validated quadratic bosonic open system.

    Channel ``mu`` has the jump operator ``l[mu] . a + k[mu] . a† +
    offsets[mu]``: ``l`` and ``k`` are ``(c, n)`` arrays, ``offsets`` a
    ``(c,)`` array.  ``forces`` is the ``(n,)`` array of linear forces,
    zeros when the model has none.  Instances are immutable after
    :func:`validate_model`; every array is marked read-only so a model can
    be shared across concurrent tasks.
    """

    n: int
    H: np.ndarray
    K: np.ndarray
    l: np.ndarray
    k: np.ndarray
    offsets: np.ndarray
    forces: np.ndarray
    repaired: bool = field(default=False, compare=False)

    @property
    def has_linear_terms(self) -> bool:
        return bool(self.forces.any() or self.offsets.any())


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
    near-symmetric case is repaired rather than refused.  ``channels`` is a
    sequence of ``(l, k)`` or ``(l, k, offset)`` tuples; ``forces=None`` is
    no force.
    """
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    H = as_complex(H, (n, n), "H")
    K = as_complex(K if K is not None else np.zeros((n, n)), (n, n), "K")

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

    channels = list(channels)
    shape = (len(channels), n)
    try:
        l_rows = as_complex([ch[0] for ch in channels] or np.empty(shape), shape, "channels")
        k_rows = as_complex([ch[1] for ch in channels] or np.empty(shape), shape, "channels")
    except DimensionMismatch:
        # stacking fails only on a vector that is not a finite complex
        # n-vector, and the per-channel walk names the first one
        for i, ch in enumerate(channels):
            as_complex(ch[0], (n,), f"channels[{i}].l")
            as_complex(ch[1], (n,), f"channels[{i}].k")
        raise
    offsets = np.zeros(len(channels), dtype=complex)
    for i, ch in enumerate(channels):
        try:
            offsets[i] = complex(ch[2]) if len(ch) > 2 else 0j
        except (TypeError, ValueError, OverflowError):
            raise DimensionMismatch(f"channels[{i}].offset is not a number") from None
        if not np.isfinite(offsets[i]):
            raise DimensionMismatch(f"channels[{i}].offset is not finite")
    forces = as_complex(forces if forces is not None else np.zeros(n), (n,), "forces")

    for A in (H, K, l_rows, k_rows, offsets, forces):
        A.setflags(write=False)
    return BosonicModel(n, H, K, l_rows, k_rows, offsets, forces, repaired=repaired)


def bath_matrices(l: np.ndarray, k: np.ndarray) -> BathMatrices:
    """Accumulate the ``(c, n)`` rows ``l`` and ``k`` into the bath matrices M, N, L.

    M and N are re-Hermitized after accumulation so that they are Hermitian
    exactly, not only up to roundoff.
    """
    n = l.shape[1]
    M = np.zeros((n, n), dtype=complex)
    N = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    # a zero vector adds only signed zeros, which leave every entry of a sum
    # that starts at +0.0 unchanged, so skipping it is exact
    for l_mu, k_mu in zip(l, k):
        has_l, has_k = l_mu.any(), k_mu.any()
        if has_l:
            M += np.outer(l_mu, l_mu.conj())
        if has_k:
            N += np.outer(k_mu, k_mu.conj())
        if has_l and has_k:
            L += np.outer(l_mu, k_mu.conj())
    M = (M + M.conj().T) / 2
    N = (N + N.conj().T) / 2
    return BathMatrices(M=M, N=N, L=L)
