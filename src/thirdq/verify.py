"""Verification: the analytic pipeline cross-checked against the oracle.

Every analytic result of one model derives from the one rapidity spectrum
of X, computed once here and passed to each stage: the Lyapunov steady
state, the steady mean, the decay-mode lattice and the gap that sets the
trajectory window.  The brute-force oracle (:mod:`thirdq.oracle`) computes
the same quantities on a truncated Fock space, and each delta is held to
its gate.  Unset gates derive from ``tol_moments``: wick and trajectory at
10x, spectrum at 100x, truncation at max(1e-8, tol_moments).
"""

from __future__ import annotations

import numpy as np

from .lyapunov import solve
from .model import BosonicModel
from .ness import (
    mean_source,
    moment_trajectory,
    physical_correlators,
    steady_mean,
    wick_moment,
)
from .oracle import (
    build_liouvillean_matrix,
    oracle_evolve,
    oracle_steady_state,
    vacuum_state,
)
from .spectral import (
    DEFAULT_TOL_MARGINAL,
    liouville_spectrum,
    rapidities,
    require_diagonalizable,
    spectral_gap,
)
from .structure import build_structure

TRACE_PRESERVATION_TOL = 1e-10


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


def run_verification(
    model: BosonicModel,
    cutoff: int | None = None,
    memcap: int | None = None,
    tol_moments: float = 1e-6,
    tol_wick: float | None = None,
    tol_spectrum: float | None = None,
    tol_trajectory: float | None = None,
    trunc_tol: float | None = None,
    tol_marginal: float = DEFAULT_TOL_MARGINAL,
) -> tuple[dict, dict]:
    """Cross-validate the analytic pipeline against the brute-force oracle.

    Returns the gates, resolved from their defaults, in report order, and a
    JSON-ready dict of side-by-side deltas with a ``pass`` flag.
    """
    from scipy.optimize import linear_sum_assignment  # only verify needs it

    gates = {
        "tol_moments": tol_moments,
        "tol_wick": 10 * tol_moments if tol_wick is None else tol_wick,
        "tol_spectrum": 100 * tol_moments if tol_spectrum is None else tol_spectrum,
        "tol_trajectory": 10 * tol_moments if tol_trajectory is None else tol_trajectory,
        "trunc_tol": max(1e-8, tol_moments) if trunc_tol is None else trunc_tol,
    }

    n = model.n
    struct = build_structure(model)
    spectrum = rapidities(struct.X, tol_marginal)
    # the oracle resolves the eigenvalues of a defective block only to about
    # the cube root of its tolerance, so the spectrum gate means nothing there
    require_diagonalizable(spectrum.cond_P)
    sol = solve(struct.X, struct.Y, spectrum)
    corr = physical_correlators(sol.Z, n)
    gap = spectral_gap(spectrum)

    linear = model.has_linear_terms
    g = mean_source(model) if linear else None
    ma = steady_mean(struct.X, g, spectrum)[:n] if linear else np.zeros(n, dtype=complex)
    if cutoff is None:
        cutoff = default_cutoff(
            corr.occupations, np.diag(corr.pair_aa), np.abs(ma) ** 2, tol_moments
        )
    lio = build_liouvillean_matrix(model, cutoff, memcap=memcap)
    trace_resid = lio.trace_preservation_residual()
    max_exc = 2 if n == 1 else 1
    analytic_vals = liouville_spectrum(spectrum, max_exc).lam
    # one eigensolve per block of M gives the steady state and the slow modes
    ss = oracle_steady_state(
        lio, top_level_tol=gates["trunc_tol"], count=analytic_vals.size
    )

    # the oracle's moments are raw, the analytic ones centred (ma = 0 unforced)
    pair_aa_ref = corr.pair_aa + np.outer(ma, ma)
    pair_adad_ref = corr.pair_adad + np.outer(ma.conj(), ma.conj())
    normal_ad_a_ref = corr.normal_ad_a + np.outer(ma, ma.conj())
    moment_max = max(
        np.abs(pair_aa_ref - ss.pair_aa).max(),
        np.abs(pair_adad_ref - ss.pair_adad).max(),
        np.abs(normal_ad_a_ref - ss.normal_ad_a).max(),
        np.abs(np.real(np.diag(normal_ad_a_ref)) - ss.occupations).max(),
    )

    if linear:
        wick_max = None
    else:
        wick_analytic = np.array(
            [wick_moment(sol.Z, (n + j, n + j, j, j)) for j in range(n)]
        )
        wick_max = float(np.abs(wick_analytic - ss.wick4).max())

    # optimal matching avoids ordering artifacts among near-ties
    cost = np.abs(analytic_vals[:, None] - ss.spectrum[None, :])
    rows, cols = linear_sum_assignment(cost)
    spectrum_max = float(cost[rows, cols].max())

    t_end = min(10.0, 6.0 / gap)
    times = np.linspace(0.0, t_end, 21)
    traj = moment_trajectory(struct.X, struct.Y, g, np.zeros((2 * n, 2 * n)), None, times)
    otraj = oracle_evolve(lio, vacuum_state(lio), times)
    # the oracle's covariance is raw: add m m^T (exactly 0 without a source)
    cov_ref = traj.C + np.einsum("ti,tj->tij", traj.m, traj.m)
    trajectory_max = float(np.abs(cov_ref - otraj.cov).max())
    mean_max = float(np.abs(traj.m - otraj.means).max()) if linear else None

    checks = [
        ("moments", float(moment_max), tol_moments),
        ("spectrum", spectrum_max, gates["tol_spectrum"]),
        ("trajectory", trajectory_max, gates["tol_trajectory"]),
        ("trace_preservation", float(trace_resid), TRACE_PRESERVATION_TOL),
    ]
    if wick_max is not None:
        checks.append(("wick", wick_max, gates["tol_wick"]))
    if mean_max is not None:
        checks.append(("means", mean_max, gates["tol_trajectory"]))
    failing = [(name, val / tol) for name, val, tol in checks if val > tol]
    failing.sort(key=lambda item: -item[1])

    return gates, {
        "pass": not failing,
        "cutoff": int(cutoff),
        "moment_max_delta": float(moment_max),
        "wick_max_delta": wick_max,
        "spectrum_max_delta": spectrum_max,
        "trajectory_max_delta": trajectory_max,
        "mean_max_delta": mean_max,
        "truncation_top_population": float(ss.top_populations.max()),
        "trace_preservation_residual": float(trace_resid),
        "lyapunov_residual": float(sol.residual),
        "worst": failing[0][0] if failing else None,
    }
