"""Brute-force ground truth on a truncated Fock space.

For small systems the full master-equation generator is assembled on
column-vectorized density matrices and solved head-on, with no
eigenvectors: steady state from a sparse shift-invert solve about zero,
spectrum from dense eigenvalues only, time evolution by the action of the
matrix exponential on one vector.  Nothing here shares code with the
analytic pipeline, so agreement between the two certifies both.

Vectorization convention, fixed project-wide: column stacking, so that
vec(A rho B) = (B^T (x) A) vec(rho).  The generator of

    drho/dt = -i [H, rho] + sum_mu (2 L_mu rho L_mu† - {L_mu† L_mu, rho})

then reads

    Lmat = -i (I (x) H - H^T (x) I)
           + sum_mu [ 2 conj(L_mu) (x) L_mu
                      - I (x) (L_mu† L_mu) - (L_mu† L_mu)^T (x) I ].

Every stage works in one real representation of it.  The columns of the
unitary ``U`` are the vec'd Hermitian matrices E_mm, (E_mn + E_nm)/sqrt(2)
and i (E_mn - E_nm)/sqrt(2) (m < n), so a Hermitian rho has real
coordinates x = U† vec(rho).  A Lindblad generator maps Hermitian matrices
to Hermitian matrices, so M = U† Lmat U is real; it is checked to be.

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
    InputError,
    NumericalError,
    TruncationInsufficient,
)
from .model import BosonicModel

DEFAULT_MEMCAP = 4_000_000  # max entries of the dense generator matrix
HERMITICITY_TOL = 1e-12  # max |Im M| relative to |Lmat|_F
MEMCAP_ENV = "THIRDQ_MEMCAP"


def memcap_from_env(default: int = DEFAULT_MEMCAP) -> int:
    raw = os.environ.get(MEMCAP_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DimensionCap(f"{MEMCAP_ENV} must be an integer, got {raw!r}") from None


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
    a: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.cutoff**self.n


def build_fock_operators(n: int, cutoff: int, memcap: int | None = None) -> FockOperators:
    """Ladder matrices lifted to the n-mode product space.

    The single-mode matrix has (a)_{m, m+1} = sqrt(m + 1); mode j acts as
    identity on every other factor, with mode 1 the leftmost Kronecker
    factor.
    """
    if cutoff < 2:
        raise DimensionCap(f"cutoff must be >= 2, got {cutoff}")
    dim = cutoff**n
    _check_cap(dim, memcap)
    a1 = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
    ops = []
    for j in range(n):
        left = np.eye(cutoff**j, dtype=complex)
        right = np.eye(cutoff ** (n - j - 1), dtype=complex)
        ops.append(np.kron(np.kron(left, a1), right))
    return FockOperators(n=n, cutoff=cutoff, a=tuple(ops))


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


class DenseLiouvillean:
    """The master-equation generator on vec'd density matrices.

    The matrix is assembled sparse.  On construction it is also written in
    the Hermitian basis ``U`` (see :func:`hermitian_basis`) as the real
    sparse matrix ``M = U† Lmat U``, which every stage of the oracle uses;
    a generator whose ``M`` is not real to ``HERMITICITY_TOL`` times
    ``|Lmat|_F`` does not preserve Hermiticity and raises
    :class:`NumericalError`.  ``Lmat`` is a dense copy of the generator.
    """

    def __init__(self, ops: FockOperators, Lsp: sp.spmatrix):
        self.ops = ops
        self.dim = ops.dim
        self._Lsp = Lsp.tocsr()
        self.U = hermitian_basis(self.dim)
        M = self.U.conj().T @ self._Lsp @ self.U
        scale = scipy.sparse.linalg.norm(self._Lsp)
        imag = np.abs(M.data.imag).max(initial=0.0)
        if imag > HERMITICITY_TOL * scale:
            raise NumericalError(
                f"generator does not preserve Hermiticity: |Im M| = {imag:.3e} "
                f"against |Lmat|_F = {scale:.3e}"
            )
        self.M = M.real.tocsc()
        self.M.eliminate_zeros()

    @property
    def Lmat(self) -> np.ndarray:
        return self._Lsp.toarray()

    def trace_preservation_residual(self) -> float:
        """|vec(I)† Lmat| / |Lmat|_F; zero for any Lindblad generator."""
        vec_id = np.eye(self.dim, dtype=complex).ravel(order="F")
        lhs = np.linalg.norm(vec_id.conj() @ self._Lsp)
        scale = scipy.sparse.linalg.norm(self._Lsp)
        return float(lhs / scale) if scale > 0 else float(lhs)


def _assemble_operators(model: BosonicModel, ops: FockOperators):
    n = model.n
    a = ops.a
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
            L = L + ch.offset * np.eye(ops.dim)
        jumps.append(L)
    return H, jumps


def build_liouvillean_matrix(
    model: BosonicModel, cutoff: int, memcap: int | None = None
) -> DenseLiouvillean:
    """Materialize the generator for ``model`` at the given Fock cutoff."""
    ops = build_fock_operators(model.n, cutoff, memcap=memcap)
    H, jumps = _assemble_operators(model, ops)
    I = sp.identity(ops.dim, dtype=complex, format="csr")
    Hs = sp.csr_matrix(H)
    Lmat = -1j * (sp.kron(I, Hs) - sp.kron(Hs.T, I))
    for L in jumps:
        Ls = sp.csr_matrix(L)
        LdL = (Ls.conj().T @ Ls).tocsr()
        Lmat = (
            Lmat
            + 2 * sp.kron(Ls.conj(), Ls)
            - sp.kron(I, LdL)
            - sp.kron(LdL.T, I)
        )
    return DenseLiouvillean(ops, Lmat)


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


def _moment_tables(ops: FockOperators, rho: np.ndarray):
    n = ops.n
    a = ops.a
    ad = [m.conj().T for m in a]
    pair_aa = np.empty((n, n), dtype=complex)
    pair_adad = np.empty((n, n), dtype=complex)
    normal_ad_a = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            pair_aa[j, k] = np.trace(a[j] @ a[k] @ rho)
            pair_adad[j, k] = np.trace(ad[j] @ ad[k] @ rho)
            normal_ad_a[j, k] = np.trace(ad[k] @ a[j] @ rho)  # <a†_k a_j>
    return pair_aa, pair_adad, normal_ad_a


def normal_covariance(ops: FockOperators, rho: np.ndarray) -> np.ndarray:
    """Normal-ordered correlator matrix <: b_r b_s :> in block layout."""
    pair_aa, pair_adad, normal_ad_a = _moment_tables(ops, rho)
    return np.block([[pair_aa, normal_ad_a], [normal_ad_a.T, pair_adad]])


def _top_level_populations(ops: FockOperators, rho: np.ndarray) -> np.ndarray:
    d, n = ops.cutoff, ops.n
    diag = np.real(np.diag(rho)).reshape((d,) * n)
    return np.array(
        [np.take(diag, d - 1, axis=j).sum() for j in range(n)], dtype=float
    )


def oracle_steady_state(
    lio: DenseLiouvillean, top_level_tol: float = 1e-8
) -> OracleSteadyState:
    """Steady state from a sparse shift-invert solve of ``M`` about zero.

    The two eigenvalues of ``M`` nearest a tiny shift are found by ARPACK
    from the fixed start vector vec(I); the one nearest zero gives the
    null vector, which is scaled to unit trace and mapped back to a
    Hermitian matrix.  A second eigenvalue indistinguishable from zero
    raises :class:`DegenerateZeroEigenvalue` (no unique steady state); a
    top-level Fock population above ``top_level_tol`` raises
    :class:`TruncationInsufficient` because the reported moments would be
    dominated by truncation bias.
    """
    dim = lio.dim
    diag = np.zeros(dim * dim)
    diag[:dim] = 1.0  # coordinates of the identity; also the trace functional
    # shift-invert about a tiny nonzero shift; the zero mode dominates
    vals, vecs = scipy.sparse.linalg.eigs(
        lio.M, k=2, sigma=1e-9, which="LM", v0=diag
    )
    order = np.argsort(np.abs(vals))
    if np.abs(vals[order[1]]) < 1e-9:
        raise DegenerateZeroEigenvalue(
            f"two eigenvalues within {np.abs(vals[order[1]]):.3e} of zero"
        )
    lam = vals[order[0]]
    x = vecs[:, order[0]]
    tr = diag @ x
    if np.abs(tr) < 1e-12:
        raise DegenerateZeroEigenvalue("null vector has vanishing trace")
    # real coordinates in the Hermitian basis give an exactly Hermitian rho
    rho = (lio.U @ (x / tr).real).reshape((dim, dim), order="F")

    top = _top_level_populations(lio.ops, rho)
    if top.max() > top_level_tol:
        raise TruncationInsufficient(
            f"top Fock level holds population {top.max():.3e} "
            f"(tolerance {top_level_tol:.1e}); increase the cutoff"
        )

    pair_aa, pair_adad, normal_ad_a = _moment_tables(lio.ops, rho)
    n = lio.ops.n
    a = lio.ops.a
    wick4 = np.array(
        [
            np.trace(a[j].conj().T @ a[j].conj().T @ a[j] @ a[j] @ rho)
            for j in range(n)
        ],
        dtype=complex,
    )
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


def oracle_spectrum(lio: DenseLiouvillean, count: int) -> np.ndarray:
    """The ``count`` slowest generator eigenvalues, Re descending.

    Eigenvalues only, from the dense real ``M`` one block at a time: a
    block is a connected component of the sparsity graph of ``M`` (without
    linear terms, superparity splits it into two).  Deep modes are
    distorted by truncation; only the leading ones are comparable to the
    analytic decay-mode lattice.
    """
    M = lio.M
    blocks, labels = scipy.sparse.csgraph.connected_components(M, directed=False)
    w = np.concatenate(
        [
            scipy.linalg.eigvals(M[idx][:, idx].toarray())
            for idx in (np.flatnonzero(labels == b) for b in range(blocks))
        ]
    )
    order = np.lexsort((w.imag, -w.real))
    return w[order][:count].copy()


def vacuum_state(lio: DenseLiouvillean) -> np.ndarray:
    rho = np.zeros((lio.dim, lio.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def oracle_evolve(lio: DenseLiouvillean, rho0: np.ndarray, times) -> OracleTrajectory:
    """Propagate vec(rho) = expm(Lmat t) vec(rho0) on a uniform time grid.

    One call of ``scipy.sparse.linalg.expm_multiply`` evolves the real
    coordinates U† vec(rho0) under ``M`` across the whole grid.  A grid of
    fewer than two times, or whose steps differ, raises :class:`InputError`.
    Returns normal-ordered covariance matrices, first moments and the trace
    at every time.
    """
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (lio.dim, lio.dim):
        raise DimensionCap(f"rho0 must be {lio.dim}x{lio.dim}, got {rho0.shape}")
    if times.ndim != 1 or times.size < 2:
        raise InputError("oracle_evolve needs a grid of at least two times")
    steps = np.diff(times)
    if np.abs(steps - steps.mean()).max() > 1e-9 * max(1.0, np.abs(times).max()):
        raise InputError("oracle_evolve needs a uniform time grid")
    x0 = lio.U.conj().T @ rho0.ravel(order="F")
    xs = scipy.sparse.linalg.expm_multiply(
        lio.M, x0, start=times[0], stop=times[-1], num=times.size, endpoint=True
    )
    vecs = (lio.U @ xs.T).T
    n = lio.ops.n
    a = lio.ops.a
    ad = [m.conj().T for m in a]
    cov = np.empty((times.size, 2 * n, 2 * n), dtype=complex)
    means = np.empty((times.size, 2 * n), dtype=complex)
    trace = np.empty(times.size, dtype=complex)
    for i, vec_t in enumerate(vecs):
        rho_t = vec_t.reshape((lio.dim, lio.dim), order="F")
        cov[i] = normal_covariance(lio.ops, rho_t)
        means[i, :n] = [np.trace(a[j] @ rho_t) for j in range(n)]
        means[i, n:] = [np.trace(ad[j] @ rho_t) for j in range(n)]
        trace[i] = np.trace(rho_t)
    return OracleTrajectory(times=times, cov=cov, means=means, trace=trace)


def default_cutoff(
    occupations, pairs, mean_abs2, tol_moments: float = 1e-6
) -> int:
    """Fock cutoff from the analytically predicted moments of each mode.

    ``occupations`` are the centred <a†_j a_j>, ``pairs`` the centred
    <a_j a_j> and ``mean_abs2`` the squared displacements |<a_j>|^2.  The
    number distribution of a zero-mean Gaussian mode decays like q^k with
    q = nbar/(1 + nbar), nbar = <a†a> + |<aa>|; the displacement is counted
    into nbar, which gives the tail of a thermal state of the same mean
    (heavier than the displaced one's far tail).  Levels at and above d
    then carry about q^d (d + nbar) of the mean occupation, and each mode
    gets the smallest d that puts this below a tenth of ``tol_moments``.
    The largest mode's d is returned, never below 10.
    """
    nbar = (
        np.maximum(np.asarray(occupations, dtype=float), 0.0)
        + np.abs(np.asarray(pairs))
        + np.asarray(mean_abs2, dtype=float)
    )
    target = 0.1 * tol_moments
    cutoff = 10
    for nb in nbar[nbar > 0]:
        rate = np.log1p(1.0 / nb)  # -ln q
        # least d >= cutoff with d * rate >= ln((d + nb) / target)
        d = cutoff
        while (nxt := int(np.ceil(np.log((d + nb) / target) / rate))) > d:
            d = nxt
        cutoff = d
    return cutoff
