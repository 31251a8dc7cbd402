"""Brute-force ground truth on a truncated Fock space.

For small systems the full master-equation generator is assembled sparse on
column-vectorized density matrices and solved head-on, with no
eigenvectors: steady state from a sparse shift-invert solve about zero,
spectrum from dense eigenvalues only, time evolution by the action of the
matrix exponential on one vector.  Nothing here shares code with the
analytic pipeline, so agreement between the two certifies both.

Vectorization convention, fixed project-wide: column stacking, so that
vec(A rho B) = (B^T (x) A) vec(rho).  The generator of

    drho/dt = -i [H, rho] + sum_mu (2 L_mu rho L_mu† - {L_mu† L_mu, rho})

then reads

    L = -i (I (x) H - H^T (x) I)
        + sum_mu [ 2 conj(L_mu) (x) L_mu
                   - I (x) (L_mu† L_mu) - (L_mu† L_mu)^T (x) I ].

Every stage works in one real representation of it.  The columns of the
unitary ``U`` are the vec'd Hermitian matrices E_mm, (E_mn + E_nm)/sqrt(2)
and i (E_mn - E_nm)/sqrt(2) (m < n), so a Hermitian rho has real
coordinates x = U† vec(rho).  A Lindblad generator maps Hermitian matrices
to Hermitian matrices, so M = U† L U is real; it is checked to be.  Every
moment is a linear functional of x: tr(A rho) = vec(A^T) . vec(rho) =
(vec(A^T)^T U) x, one row of the readout matrix ``R``.

Truncation to ``cutoff`` levels per mode is an approximation; its quality is
checked a posteriori through the population of the top Fock level.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import (
    DegenerateZeroEigenvalue,
    DimensionCap,
    DimensionMismatch,
    InputError,
    NumericalError,
    TruncationInsufficient,
)
from .model import BosonicModel

DEFAULT_MEMCAP = 4_000_000  # max entries of the dense generator matrix
HERMITICITY_TOL = 1e-12  # max |Im M| relative to |L|_F
MEMCAP_ENV = "THIRDQ_MEMCAP"


def memcap_from_env(default: int = DEFAULT_MEMCAP) -> int:
    raw = os.environ.get(MEMCAP_ENV)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{MEMCAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"{MEMCAP_ENV} must be at least 1, got {raw!r}")
    return cap


def _check_cap(dim: int, memcap: int | None) -> None:
    cap = DEFAULT_MEMCAP if memcap is None else memcap
    entries = dim**4
    if entries > cap:
        raise DimensionCap(
            f"generator would hold {entries} entries "
            f"({dim**2}x{dim**2}), over the cap of {cap}; "
            f"raise it via {MEMCAP_ENV} or the memcap argument"
        )


@dataclass(frozen=True)
class FockOperators:
    """Per-mode annihilation operators on the truncated multi-mode space."""

    n: int
    cutoff: int
    a: tuple[sp.csr_matrix, ...]

    @property
    def dim(self) -> int:
        return self.cutoff**self.n


def _lift(op: sp.spmatrix, j: int, n: int, cutoff: int) -> sp.csr_matrix:
    """``op`` on mode j of n, identity on every other; mode 1 is leftmost."""
    left = sp.identity(cutoff**j, format="csr")
    right = sp.identity(cutoff ** (n - j - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def build_fock_operators(n: int, cutoff: int, memcap: int | None = None) -> FockOperators:
    """Sparse ladder matrices lifted to the n-mode product space.

    The single-mode matrix has (a)_{m, m+1} = sqrt(m + 1).  A cutoff below
    2 raises :class:`InputError`; a space over the memcap raises
    :class:`DimensionCap`.
    """
    if cutoff < 2:
        raise InputError(f"cutoff must be >= 2, got {cutoff}")
    _check_cap(cutoff**n, memcap)
    a1 = sp.diags(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)
    a = tuple(_lift(a1, j, n, cutoff) for j in range(n))
    return FockOperators(n=n, cutoff=cutoff, a=a)


def hermitian_basis(dim: int) -> sp.csr_matrix:
    """Unitary whose columns are the vec'd orthonormal Hermitian basis.

    Columns 0..dim-1 are E_mm; then, for the pairs m < n in row-major
    order, (E_mn + E_nm)/sqrt(2), then i (E_mn - E_nm)/sqrt(2).
    """
    m, n = np.triu_indices(dim, 1)
    pairs = m.size
    diag = np.arange(dim)
    upper, lower = m + dim * n, n + dim * m  # vec indices of E_mn, E_nm
    sym = dim + np.arange(pairs)
    anti = sym + pairs
    s = 1.0 / np.sqrt(2.0)
    rows = np.concatenate([diag * (dim + 1), upper, lower, upper, lower])
    cols = np.concatenate([diag, sym, sym, anti, anti])
    vals = np.concatenate(
        [
            np.ones(dim, dtype=complex),
            np.full(pairs, s, dtype=complex),
            np.full(pairs, s, dtype=complex),
            np.full(pairs, 1j * s),
            np.full(pairs, -1j * s),
        ]
    )
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))


def _readout_operators(ops: FockOperators) -> sp.csr_matrix:
    """The rows vec(A^T)^T, so that row A times vec(rho) is tr(A rho).

    Under column stacking vec(A^T) is A flattened row by row.  The operators
    A come in the order :func:`_moments` splits: a_j a_k, a†_j a†_k and
    a†_k a_j for every (j, k); a_j; a†_j; a†_j a†_j a_j a_j; the projector
    on the top level of mode j; the identity.
    """
    n, d, a = ops.n, ops.cutoff, ops.a
    ad = [m.conj().T for m in a]
    pairs = [(j, k) for j in range(n) for k in range(n)]
    top = sp.diags((np.arange(d) == d - 1).astype(float))
    rows = (
        [a[j] @ a[k] for j, k in pairs]
        + [ad[j] @ ad[k] for j, k in pairs]
        + [ad[k] @ a[j] for j, k in pairs]
        + list(a)
        + ad
        + [ad[j] @ ad[j] @ a[j] @ a[j] for j in range(n)]
        + [_lift(top, j, n, d) for j in range(n)]
        + [sp.identity(ops.dim)]
    )
    coo = [A.tocoo() for A in rows]
    data = np.concatenate([A.data for A in coo])
    index = np.repeat(np.arange(len(coo)), [A.nnz for A in coo])
    flat = np.concatenate([A.row * ops.dim + A.col for A in coo])
    return sp.csr_matrix((data, (index, flat)), shape=(len(coo), ops.dim**2))


def _moments(n: int, y: np.ndarray):
    """Split readout values ``y`` (last axis: the rows of ``R``) by operator.

    Returns <a_j a_k>, <a†_j a†_k>, <a†_k a_j> (each (..., n, n)), <a_j>,
    <a†_j>, <a†_j a†_j a_j a_j>, top-level populations (each (..., n)), trace.
    """
    nn = n * n
    parts = np.split(y, np.cumsum([nn, nn, nn, n, n, n, n]), axis=-1)
    pairs = [p.reshape(y.shape[:-1] + (n, n)) for p in parts[:3]]
    return (*pairs, *parts[3:7], parts[7][..., 0])


class Liouvillean:
    """The master-equation generator on vec'd density matrices.

    ``L`` is the sparse generator.  On construction it is also written in
    the Hermitian basis ``U`` (see :func:`hermitian_basis`) as the real
    sparse matrix ``M = U† L U``, which every stage of the oracle uses; a
    generator whose ``M`` is not real to ``HERMITICITY_TOL`` times
    ``|L|_F`` does not preserve Hermiticity and raises
    :class:`NumericalError`.  The sparse readout ``R`` gives every reported
    moment of a state from its coordinates: ``R @ x``.  ``blocks`` holds the
    coordinate indices of each connected component of the sparsity graph of
    ``M`` (without linear terms, superparity splits it into two); ``M``
    couples no two blocks.
    """

    def __init__(self, ops: FockOperators, L: sp.spmatrix):
        self.ops = ops
        self.dim = ops.dim
        self.L = L.tocsr()
        self.U = hermitian_basis(self.dim)
        M = self.U.conj().T @ self.L @ self.U
        scale = scipy.sparse.linalg.norm(self.L)
        imag = np.abs(M.data.imag).max(initial=0.0)
        if imag > HERMITICITY_TOL * scale:
            raise NumericalError(
                f"generator does not preserve Hermiticity: |Im M| = {imag:.3e} "
                f"against |L|_F = {scale:.3e}"
            )
        self.M = M.real.tocsc()
        self.M.eliminate_zeros()
        count, labels = scipy.sparse.csgraph.connected_components(self.M, directed=False)
        self.blocks = tuple(np.flatnonzero(labels == b) for b in range(count))
        self.R = (_readout_operators(ops) @ self.U).tocsr()

    def trace_preservation_residual(self) -> float:
        """|vec(I)† L| / |L|_F; zero for any Lindblad generator."""
        vec_id = (np.arange(self.dim**2) % (self.dim + 1) == 0).astype(complex)
        lhs = np.linalg.norm(vec_id @ self.L)
        scale = scipy.sparse.linalg.norm(self.L)
        return float(lhs / scale) if scale > 0 else float(lhs)


def _assemble_operators(model: BosonicModel, ops: FockOperators):
    n, a = model.n, ops.a
    ad = [m.conj().T for m in a]
    H = sum(
        model.H[j, k] * (ad[j] @ a[k]) for j in range(n) for k in range(n)
    ) + sum(
        model.K[j, k] * (a[j] @ a[k]) + np.conj(model.K[j, k]) * (ad[j] @ ad[k])
        for j in range(n)
        for k in range(n)
    )
    if model.forces is not None:
        for j in range(n):
            H = H + model.forces[j] * a[j] + np.conj(model.forces[j]) * ad[j]
    jumps = []
    for ch in model.channels:
        L = sum(ch.l[j] * a[j] + ch.k[j] * ad[j] for j in range(n))
        if ch.offset != 0:
            L = L + ch.offset * sp.identity(ops.dim)
        jumps.append(L)
    return H, jumps


def build_liouvillean_matrix(
    model: BosonicModel, cutoff: int, memcap: int | None = None
) -> Liouvillean:
    """Materialize the generator for ``model`` at the given Fock cutoff."""
    ops = build_fock_operators(model.n, cutoff, memcap=memcap)
    H, jumps = _assemble_operators(model, ops)
    I = sp.identity(ops.dim, dtype=complex, format="csr")
    L = -1j * (sp.kron(I, H) - sp.kron(H.T, I))
    for J in jumps:
        JdJ = J.conj().T @ J
        L = L + 2 * sp.kron(J.conj(), J) - sp.kron(I, JdJ) - sp.kron(JdJ.T, I)
    return Liouvillean(ops, L)


@dataclass(frozen=True)
class OracleSteadyState:
    rho: np.ndarray
    eigenvalue: complex
    pair_aa: np.ndarray
    pair_adad: np.ndarray
    normal_ad_a: np.ndarray
    occupations: np.ndarray
    wick4: np.ndarray  # per-mode tr(a†_j a†_j a_j a_j rho)
    top_populations: np.ndarray


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    cov: np.ndarray  # (T, 2n, 2n) normal-ordered correlator matrices
    means: np.ndarray  # (T, 2n) first moments of (a, a†)
    trace: np.ndarray


def oracle_steady_state(
    lio: Liouvillean, top_level_tol: float = 1e-8
) -> OracleSteadyState:
    """Steady state from a sparse shift-invert solve of ``M`` about zero.

    The two eigenvalues of ``M`` nearest a tiny shift are found by ARPACK
    from the fixed start vector vec(I); the one nearest zero gives the
    null vector, whose moments (its trace among them) are read off with
    ``R`` and scaled to unit trace.  A second eigenvalue indistinguishable
    from zero raises :class:`DegenerateZeroEigenvalue` (no unique steady
    state); a top-level Fock population above ``top_level_tol`` raises
    :class:`TruncationInsufficient` because the reported moments would be
    dominated by truncation bias.
    """
    dim = lio.dim
    v0 = (np.arange(dim * dim) < dim).astype(float)  # coordinates of the identity
    # shift-invert about a tiny nonzero shift; the zero mode dominates
    vals, vecs = scipy.sparse.linalg.eigs(
        lio.M, k=2, sigma=1e-9, which="LM", v0=v0
    )
    order = np.argsort(np.abs(vals))
    if np.abs(vals[order[1]]) < 1e-9:
        raise DegenerateZeroEigenvalue(
            f"two eigenvalues within {np.abs(vals[order[1]]):.3e} of zero"
        )
    lam = vals[order[0]]
    x = vecs[:, order[0]]
    y = lio.R @ x
    tr = y[-1]
    if np.abs(tr) < 1e-12:
        raise DegenerateZeroEigenvalue("null vector has vanishing trace")
    pair_aa, pair_adad, normal_ad_a, _, _, wick4, top, _ = _moments(lio.ops.n, y / tr)
    top = top.real
    if top.max() > top_level_tol:
        raise TruncationInsufficient(
            f"top Fock level holds population {top.max():.3e} "
            f"(tolerance {top_level_tol:.1e}); increase the cutoff"
        )
    # real coordinates in the Hermitian basis give an exactly Hermitian rho
    rho = (lio.U @ (x / tr).real).reshape((dim, dim), order="F")
    return OracleSteadyState(
        rho=rho,
        eigenvalue=complex(lam),
        pair_aa=pair_aa,
        pair_adad=pair_adad,
        normal_ad_a=normal_ad_a,
        occupations=np.real(np.diag(normal_ad_a)).copy(),
        wick4=wick4,
        top_populations=top,
    )


def oracle_spectrum(lio: Liouvillean, count: int) -> np.ndarray:
    """The ``count`` slowest generator eigenvalues, Re descending.

    Eigenvalues only, from the dense real ``M`` one of its ``blocks`` at a
    time.  Deep modes are distorted by truncation; only the leading ones are
    comparable to the analytic decay-mode lattice.
    """
    M = lio.M
    w = np.concatenate(
        [scipy.linalg.eigvals(M[idx][:, idx].toarray()) for idx in lio.blocks]
    )
    order = np.lexsort((w.imag, -w.real))
    return w[order][:count].copy()


def vacuum_state(lio: Liouvillean) -> np.ndarray:
    rho = np.zeros((lio.dim, lio.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def oracle_evolve(lio: Liouvillean, rho0: np.ndarray, times) -> OracleTrajectory:
    """Propagate vec(rho) = expm(L t) vec(rho0) on a uniform time grid.

    One call of ``scipy.sparse.linalg.expm_multiply`` evolves the real
    coordinates U† vec(rho0) across the whole grid under the part of ``M``
    on the blocks that rho0 touches; the blocks do not couple, so every
    other coordinate stays exactly zero.  One product with ``R`` reads the
    moments at every time.  A ``rho0`` of the wrong shape raises
    :class:`DimensionMismatch`; a grid of fewer than two times, or whose
    steps differ, raises :class:`InputError`.
    Returns normal-ordered covariance matrices, first moments and the trace
    at every time.
    """
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (lio.dim, lio.dim):
        raise DimensionMismatch(f"rho0 must be {lio.dim}x{lio.dim}, got {rho0.shape}")
    if times.ndim != 1 or times.size < 2:
        raise InputError("oracle_evolve needs a grid of at least two times")
    steps = np.diff(times)
    if np.abs(steps - steps.mean()).max() > 1e-9 * max(1.0, np.abs(times).max()):
        raise InputError("oracle_evolve needs a uniform time grid")
    x0 = lio.U.conj().T @ rho0.ravel(order="F")
    touched = [idx for idx in lio.blocks if x0[idx].any()]
    idx = np.sort(np.concatenate(touched or lio.blocks))
    xs = np.zeros((times.size, x0.size), dtype=complex)
    xs[:, idx] = scipy.sparse.linalg.expm_multiply(
        lio.M[idx][:, idx], x0[idx], start=times[0], stop=times[-1], num=times.size, endpoint=True
    )
    pair_aa, pair_adad, normal_ad_a, mean_a, mean_ad, _, _, trace = _moments(
        lio.ops.n, (lio.R @ xs.T).T
    )
    cov = np.block([[pair_aa, normal_ad_a], [normal_ad_a.swapaxes(1, 2), pair_adad]])
    means = np.concatenate([mean_a, mean_ad], axis=1)
    return OracleTrajectory(times=times, cov=cov, means=means, trace=trace)

