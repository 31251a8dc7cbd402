"""Brute-force ground truth on a truncated Fock space.

For small systems the full master-equation generator is assembled sparse on
column-vectorized density matrices and solved head-on.  The Fock basis is
one table of occupation vectors; the Hamiltonian, every jump operator and
every moment read out are sums of ladder words, each read off that table
array-at-a-time for all basis states at once.  One implicitly
restarted Arnoldi call (ARPACK) per decoupled block of the generator finds
its slowest eigenvalues; the block that holds the identity also returns
Ritz vectors, and its zero mode is the steady state.  Only a block too
narrow for ARPACK is solved dense.  Time evolution steps the real
coordinates across the time grid with an error-controlled Krylov
exponential (Sidje's Expokit ``expv``), landing on every grid time.
Nothing here shares code with the analytic pipeline, so agreement between
the two certifies both.

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

DEFAULT_MEMCAP = 4_000_000  # max (d^n)^4, the generator's entries if it were dense
HERMITICITY_TOL = 1e-12  # max |Im M| relative to |L|_F
ARNOLDI_NCV = 30  # Krylov basis per block; ARPACK's 2k + 1 restarts far more often
ARNOLDI_TOL = 1e-12  # relative accuracy of each Ritz value
ZERO_TOL = 1e-9  # |lambda| below which an eigenvalue is a steady-state mode
KRYLOV_DIM = 30  # Arnoldi vectors per step of the trajectory
KRYLOV_TOL = 1e-13  # error per unit time of the trajectory, relative to |x0|
TRACE_DRIFT_TOL = 1e-10  # max |tr rho(t) - tr rho0| of a trajectory, relative to |x0|
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
    """The truncated n-mode Fock basis as a table of occupation vectors.

    ``occ[j, s]`` is the level of mode j + 1 in basis state s.  The table
    comes from ``np.indices``, so mode 1 is the most significant digit of s
    and the basis is ordered as the Kronecker product of the single-mode
    spaces.  Every operator of the oracle is read off this table.
    """

    n: int
    cutoff: int
    occ: np.ndarray

    @property
    def dim(self) -> int:
        return self.occ.shape[1]

    @property
    def a(self) -> tuple[sp.csr_matrix, ...]:
        """Per-mode annihilation matrices, (a)_{m, m+1} = sqrt(m + 1) on each mode."""
        return tuple(_operator(self, [(-j,)], np.ones(1)) for j in range(1, self.n + 1))


def build_fock_operators(n: int, cutoff: int, memcap: int | None = None) -> FockOperators:
    """The occupation table of n modes at ``cutoff`` levels each.

    A cutoff below 2 raises :class:`InputError`; a space over the memcap
    raises :class:`DimensionCap`.
    """
    if cutoff < 2:
        raise InputError(f"cutoff must be >= 2, got {cutoff}")
    _check_cap(cutoff**n, memcap)
    return FockOperators(n=n, cutoff=cutoff, occ=np.indices((cutoff,) * n).reshape(n, -1))


def _read_words(ops: FockOperators, words) -> tuple[np.ndarray, ...]:
    """Every nonzero entry of each ladder word on the truncated space.

    Each word is a sequence of letters: j stands for a†_j and -j for a_j
    (modes counted from 1), and the rightmost letter acts first; the empty
    word is the identity.  The words are padded on the left with the
    identity letter 0 into a (T, p) array, and each letter is applied to
    every word and every basis state at once; a state pushed past the top
    level or below zero drops out, exactly as in a product of truncated
    ladder matrices.  Returns (word, row, col, value), word by word, each
    value the product of the letters' square-root factors.
    """
    p = max(map(len, words))
    words = np.array([(0,) * (p - len(w)) + tuple(w) for w in words], dtype=int)
    word, col = np.divmod(np.arange(len(words) * ops.dim), ops.dim)
    row, value = col, np.ones(col.size)
    stride = ops.dim // ops.cutoff ** np.arange(1, ops.n + 1)  # index step of a level in mode j
    for letters in words.T[::-1]:
        j, step = np.abs(letters[word]) - 1, np.sign(letters[word])
        old = ops.occ[j, row]
        new = old + step
        value = value * np.where(step != 0, np.sqrt(np.maximum(old, new)), 1.0)
        keep = (new >= 0) & (new < ops.cutoff)
        word, row, col, value = (x[keep] for x in (word, row + step * stride[j], col, value))
    return word, row, col, value


def _operator(ops: FockOperators, words, coef: np.ndarray) -> sp.csr_matrix:
    """sum_t coef[t] word_t as a CSR matrix with no stored zeros.

    Terms that meet in one entry are added one by one in word order, the
    order in which a running sum of the separate matrices would add them.
    """
    word, row, col, value = _read_words(ops, words)
    key, slot = np.unique(row * ops.dim + col, return_inverse=True)
    data = np.zeros(key.size, dtype=coef.dtype)
    np.add.at(data, slot, coef[word] * value)
    keep = data != 0
    return sp.csr_matrix((data[keep], np.divmod(key[keep], ops.dim)), shape=(ops.dim,) * 2)


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


def _quadratic_words(n: int) -> list[tuple[int, ...]]:
    """a_j a_k, a†_j a†_k and a†_k a_j for every (j, k) row-major; a_j; a†_j."""
    j, k = np.indices((n, n)).reshape(2, -1) + 1
    m = np.arange(1, n + 1)
    return [*zip(-j, -k), *zip(j, k), *zip(k, -j), *zip(-m), *zip(m)]


def _readout_operators(ops: FockOperators) -> sp.csr_matrix:
    """The rows vec(A^T)^T, so that row A times vec(rho) is tr(A rho).

    Under column stacking vec(A^T) is A flattened row by row.  The operators
    A come in the order :func:`_moments` splits: the quadratic words of
    :func:`_quadratic_words`; a†_j a†_j a_j a_j; the projector on the top
    level of mode j, read straight from the occupation table; the identity.
    """
    n, dim = ops.n, ops.dim
    m = np.arange(1, n + 1)
    words = _quadratic_words(n) + [*zip(m, m, -m, -m)]
    word, row, col, value = _read_words(ops, words + [()])
    mode, state = np.nonzero(ops.occ == ops.cutoff - 1)
    index = np.concatenate([word + n * (word == len(words)), len(words) + mode])
    flat = np.concatenate([row * dim + col, state * (dim + 1)])
    data = np.concatenate([value, np.ones(state.size)])
    return sp.csr_matrix((data, (index, flat)), shape=(len(words) + n + 1, dim**2))


def _moments(n: int, y: np.ndarray):
    """Split readout values ``y`` (last axis: the rows of ``R``) by operator.

    Returns <a_j a_k>, <a†_j a†_k>, <a†_k a_j> (each (..., n, n)), <a_j>,
    <a†_j>, <a†_j a†_j a_j a_j>, top-level populations (each (..., n)), trace.
    """
    nn = n * n
    parts = np.split(y, np.cumsum([nn, nn, nn, n, n, n, n]), axis=-1)
    pairs = [p.reshape(y.shape[:-1] + (n, n)) for p in parts[:3]]
    return (*pairs, *parts[3:7], parts[7][..., 0])


def _frobenius(values: np.ndarray) -> float:
    """sqrt(sum |v|^2) by numpy's pairwise sum.

    Unlike the BLAS dot products behind ``np.linalg.norm``, its order of
    summation does not depend on the number of BLAS threads, so reports do
    not either.
    """
    return float(np.sqrt(np.sum(values.real**2 + values.imag**2)))


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
        self.L.sum_duplicates()
        scale = _frobenius(self.L.data)
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
        lhs = _frobenius(vec_id @ self.L)
        scale = _frobenius(self.L.data)
        return lhs / scale if scale > 0 else lhs


def _assemble_operators(model: BosonicModel, ops: FockOperators):
    f = np.zeros(model.n, dtype=complex) if model.forces is None else model.forces
    K = model.K.ravel()
    coef = np.r_[K, K.conj(), model.H.T.ravel(), f, f.conj()]  # a†_k a_j takes H_kj
    H = _operator(ops, _quadratic_words(model.n), coef)
    m = np.arange(1, model.n + 1)
    ladder = [*zip(-m), *zip(m), ()]  # a_j, a†_j, the identity
    return H, [_operator(ops, ladder, np.r_[ch.l, ch.k, ch.offset]) for ch in model.channels]


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
    spectrum: np.ndarray  # the slowest eigenvalues of M, Re descending


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    cov: np.ndarray  # (T, 2n, 2n) normal-ordered correlator matrices
    means: np.ndarray  # (T, 2n) first moments of (a, a†)
    trace: np.ndarray


def _slow_modes(B: sp.csc_matrix, k: int, vectors: bool):
    """The ``k`` rightmost eigenvalues of the real block ``B``, Re descending.

    Implicitly restarted Arnoldi (ARPACK) from the all-ones start vector;
    with ``vectors`` it also returns their right eigenvectors as columns.
    A block ARPACK cannot take (``k >= width - 1``, or no wider than its
    Krylov basis) is solved dense.  Non-convergence raises
    :class:`NumericalError`.
    """
    width = B.shape[0]
    if k >= width - 1 or width <= ARNOLDI_NCV:
        w, V = scipy.linalg.eig(B.toarray())
    else:
        try:
            out = scipy.sparse.linalg.eigs(
                B,
                k=k,
                which="LR",
                ncv=min(width, max(ARNOLDI_NCV, 2 * k + 1)),  # ARPACK needs k + 2
                tol=ARNOLDI_TOL,
                v0=np.ones(width),
                return_eigenvectors=vectors,
            )
        except scipy.sparse.linalg.ArpackNoConvergence:
            raise NumericalError(
                f"ARPACK did not converge on a {width}-wide block of M for k = {k}"
            ) from None
        w, V = out if vectors else (out, None)
    order = np.argsort(-w.real, kind="stable")[:k]
    return w[order], V[:, order] if vectors else None


def _slow_spectrum(lio: Liouvillean, count: int, steady: bool):
    """The slowest eigenvalues of ``M``: ``count`` from each of its blocks.

    One eigensolve per block.  Returns every value found, Re descending
    (Im ascending among ties), and, with ``steady``, the eigenvalue nearest
    zero in the block of the identity coordinates with its eigenvector in
    the full coordinates; without it, ``None``.
    """
    values, zero = [], None
    for idx in lio.blocks:
        want = steady and bool(idx[0] == 0)  # the identity's first coordinate
        w, V = _slow_modes(lio.M[idx][:, idx], min(count, idx.size), want)
        values.append(w)
        if want:
            j = int(np.argmin(np.abs(w)))
            x = np.zeros(lio.M.shape[0], dtype=complex)
            x[idx] = V[:, j]
            zero = (w[j], x)
    w = np.concatenate(values)
    return w[np.lexsort((w.imag, -w.real))], zero


def oracle_steady_state(
    lio: Liouvillean, top_level_tol: float = 1e-8, count: int = 2
) -> OracleSteadyState:
    """Steady state as the zero mode of the slow spectrum of ``M``.

    One ARPACK call per block of ``M`` finds its ``max(count, 2)`` rightmost
    eigenvalues; the block that holds the identity coordinates also yields
    their Ritz vectors.  The zero mode's vector gives the moments (its
    trace among them), read off with ``R`` and scaled to unit trace, and
    ``spectrum`` keeps the ``count`` slowest eigenvalues over all blocks.
    A second eigenvalue in any block indistinguishable from zero, or a
    null vector of vanishing trace, raises
    :class:`DegenerateZeroEigenvalue` (no unique steady state); a top-level
    Fock population above ``top_level_tol`` raises
    :class:`TruncationInsufficient` because the reported moments would be
    dominated by truncation bias.
    """
    dim = lio.dim
    w, (lam, x) = _slow_spectrum(lio, max(count, 2), steady=True)
    near = np.sort(np.abs(w))
    if near[1] < ZERO_TOL:
        raise DegenerateZeroEigenvalue(f"two eigenvalues within {near[1]:.3e} of zero")
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
        spectrum=w[:count].copy(),
    )


def oracle_spectrum(lio: Liouvillean, count: int) -> np.ndarray:
    """The ``count`` slowest generator eigenvalues, Re descending.

    Eigenvalues only, from one ARPACK call per block of ``M`` (dense for a
    block ARPACK cannot take, so ``count = dim**2`` gives every eigenvalue).
    Deep modes are distorted by truncation; only the leading ones are
    comparable to the analytic decay-mode lattice.
    """
    w, _ = _slow_spectrum(lio, count, steady=False)
    return w[:count].copy()


def vacuum_state(lio: Liouvillean) -> np.ndarray:
    rho = np.zeros((lio.dim, lio.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _round2(t: float) -> float:
    """``t`` rounded up to two significant digits, as Expokit rounds its steps."""
    if not 0 < t < np.inf:
        return t
    s = 10.0 ** (np.floor(np.log10(t)) - 1)
    return float(np.ceil(t / s) * s)


def _stalled(width: int, t: float, why: str) -> NumericalError:
    return NumericalError(
        f"Krylov exponential on a {width}-wide block of M stalled at t = {t:.6g}: {why}"
    )


def _krylov_evolve(B: sp.csr_matrix, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(B t) x0 at every time of a non-decreasing grid, from t = 0.

    Sidje's ``expv`` (Expokit, ACM TOMS 24:130, 1998) in real arithmetic.
    Each step builds a ``KRYLOV_DIM``-dimensional Arnoldi basis of B from
    the current vector w, with two classical Gram-Schmidt passes, and takes
    the step and Expokit's local error estimate from the exponential of the
    Hessenberg matrix augmented by two rows and columns.  The error per
    unit time is held to ``tol = KRYLOV_TOL |x0|``: a step whose estimate
    exceeds 1.2 step tol is retried shorter, and the next step follows
    Expokit's rule (safety factor 0.9, two significant digits).  Steps are
    clipped at each grid time, which is landed on exactly.  A subdiagonal
    entry s with s |w| <= tol, a residual within that budget, ends the basis
    at an invariant subspace, whose exponential then takes w to the next
    grid time.  A step rejected more than 10 times or shorter than the
    float spacing of t, or a state that is not finite, raises
    :class:`NumericalError`.
    """
    width = B.shape[0]
    m = min(KRYLOV_DIM, width)
    anorm = float(abs(B).sum(axis=1).max())
    tol = KRYLOV_TOL * np.linalg.norm(x0)
    fact = ((m + 1) / np.e) ** (m + 1) * np.sqrt(2 * np.pi * (m + 1))  # Expokit's first step
    t_new = _round2((fact * KRYLOV_TOL / (4 * anorm)) ** (1 / m) / anorm) if anorm else np.inf
    xs, w, t_now = np.zeros((times.size, width)), x0, 0.0
    for i, target in enumerate(times):
        while t_now < target:
            beta = np.linalg.norm(w)
            V, H = np.zeros((m + 2, width)), np.zeros((m + 2, m + 2))  # V[m + 1] stays 0
            V[0], H[m + 1, m], k = w / beta, 1.0, m + 2
            for j in range(m):
                p = B @ V[j]
                for _ in range(2):
                    c = V[: j + 1] @ p
                    p -= c @ V[: j + 1]
                    H[: j + 1, j] += c
                s = np.linalg.norm(p)
                if s * beta <= tol:  # happy breakdown: exponentiate H[:k, :k] alone
                    k = j + 1
                    break
                H[j + 1, j], V[j + 1] = s, p / s
            avnorm = np.linalg.norm(B @ V[m])
            step = target - t_now if k <= m else min(target - t_now, t_new)
            for rejects in range(12):
                if rejects > 10 or not step >= np.spacing(t_now):
                    raise _stalled(width, t_now, f"step {step:.3e} after {rejects} rejections")
                with np.errstate(over="ignore"):  # a state that overflows is refused below
                    F = scipy.linalg.expm(step * H[:k, :k])
                err, xm = 0.0, 1 / m
                if k > m:
                    phi1, phi2 = abs(beta * F[m, 0]), abs(beta * F[m + 1, 0]) * avnorm
                    err, xm = (phi1, 1 / max(m - 1, 1)) if phi1 <= phi2 else (phi2, 1 / m)
                    if phi2 < phi1 <= 10 * phi2:
                        err = phi1 * phi2 / (phi1 - phi2)
                if err <= 1.2 * step * tol:
                    break
                step = _round2(0.9 * step * (step * tol / err) ** xm)
            w = V[:k].T @ (beta * F[:k, 0])
            if not np.isfinite(w).all():
                raise _stalled(width, t_now, "the state is not finite")
            if err > 0:
                t_new = _round2(0.9 * step * (step * tol / err) ** xm)
            t_now = target if step >= target - t_now else t_now + step
        xs[i] = w
    return xs


def oracle_evolve(lio: Liouvillean, rho0: np.ndarray, times) -> OracleTrajectory:
    """Propagate vec(rho) = expm(L t) vec(rho0) on a uniform time grid.

    The real coordinates U† vec(rho0) are evolved from t = 0 to every grid
    time under the part of ``M`` on the blocks that rho0 touches, by an
    error-controlled Krylov exponential (:func:`_krylov_evolve`); their
    real and imaginary parts are evolved apart, the imaginary part only
    when rho0 is not Hermitian.  The blocks do not couple, so every other
    coordinate stays exactly zero.  One product with ``R`` reads the
    moments at every time.  A ``rho0`` of the wrong shape raises
    :class:`DimensionMismatch`; a grid of fewer than two times, with a
    non-finite time, a first time below zero, or steps that decrease or
    differ, raises :class:`InputError`.  A trace that drifts from tr rho0 by
    more than ``TRACE_DRIFT_TOL`` times |x0| at any time raises
    :class:`NumericalError`: once |lambda_0| t is not small, where lambda_0
    is the rounding-sized eigenvalue of ``M`` nearest zero, the rounding in
    ``M`` sets the state.
    Returns normal-ordered covariance matrices, first moments and the trace
    at every time.
    """
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (lio.dim, lio.dim):
        raise DimensionMismatch(f"rho0 must be {lio.dim}x{lio.dim}, got {rho0.shape}")
    if times.ndim != 1 or times.size < 2:
        raise InputError("oracle_evolve needs a grid of at least two times")
    if not np.isfinite(times).all():
        raise InputError("oracle_evolve needs finite times")
    steps = np.diff(times)
    if times[0] < 0 or (steps < 0).any():
        raise InputError("oracle_evolve needs non-decreasing times from t >= 0")
    if np.abs(steps - steps.mean()).max() > 1e-9 * max(1.0, np.abs(times).max()):
        raise InputError("oracle_evolve needs a uniform time grid")
    x0 = lio.U.conj().T @ rho0.ravel(order="F")
    touched = [idx for idx in lio.blocks if x0[idx].any()]
    xs = np.zeros((times.size, x0.size), dtype=complex)
    if touched:
        idx = np.sort(np.concatenate(touched))
        B = lio.M[idx][:, idx].tocsr()
        for part, unit in ((x0[idx].real, 1.0), (x0[idx].imag, 1j)):
            if part.any():
                xs[:, idx] += unit * _krylov_evolve(B, part, times)
    pair_aa, pair_adad, normal_ad_a, mean_a, mean_ad, _, _, trace = _moments(
        lio.ops.n, (lio.R @ xs.T).T
    )
    drift = np.abs(trace - np.trace(rho0))
    bad = np.flatnonzero(~(drift <= TRACE_DRIFT_TOL * np.linalg.norm(x0)))
    if bad.size:
        raise NumericalError(
            f"oracle trajectory does not preserve the trace: |tr rho(t) - tr rho0| "
            f"= {drift[bad[0]]:.3e} at t = {times[bad[0]]:.6g}"
        )
    cov = np.block([[pair_aa, normal_ad_a], [normal_ad_a.swapaxes(1, 2), pair_adad]])
    means = np.concatenate([mean_a, mean_ad], axis=1)
    return OracleTrajectory(times=times, cov=cov, means=means, trace=trace)
